#include "collect/adaptive_transmitter.hpp"

namespace resmon::collect {

AdaptiveTransmitter::AdaptiveTransmitter(const AdaptiveOptions& options)
    : options_(options) {
  validate(options_);
  if (options_.metrics != nullptr) {
    queue_hist_ = &queue_length_histogram(*options_.metrics);
    budget_gauge(*options_.metrics).set(options_.max_frequency);
  }
}

bool AdaptiveTransmitter::decide(std::size_t t, std::span<const double> x) {
  RESMON_REQUIRE(!x.empty(), "measurement must be non-empty");
  const bool first = transmissions_ == 0;
  if (first) last_sent_.resize(x.size());
  RESMON_REQUIRE(x.size() == last_sent_.size(),
                 "measurement dimension changed between decisions");
  ++decisions_;
  const bool transmit =
      adaptive_decide(options_, adaptive_weight(options_, t), x, first,
                      last_sent_, queue_, last_penalty_);
  if (queue_hist_ != nullptr) queue_hist_->observe(queue_);
  if (transmit) ++transmissions_;
  return transmit;
}

obs::Histogram& queue_length_histogram(obs::MetricsRegistry& metrics) {
  return metrics.histogram(
      "resmon_collect_queue_length",
      "Virtual-queue backlog Q_i(t) after each decision, eq. (9)",
      {-4.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0});
}

obs::Gauge& budget_gauge(obs::MetricsRegistry& metrics) {
  return metrics.gauge("resmon_collect_budget_b",
                       "Configured long-run transmission frequency cap B");
}

UniformTransmitter::UniformTransmitter(double max_frequency)
    : max_frequency_(max_frequency), credit_(1.0) {
  validate_budget(max_frequency);
}

bool UniformTransmitter::decide(std::size_t /*t*/,
                                std::span<const double> /*x*/) {
  ++decisions_;
  const bool transmit = uniform_decide(max_frequency_, credit_);
  if (transmit) ++transmissions_;
  return transmit;
}

}  // namespace resmon::collect
