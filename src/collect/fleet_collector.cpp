#include "collect/fleet_collector.hpp"

#include <algorithm>

namespace resmon::collect {

namespace {

/// Trivial policy that transmits every step; used as the B = 1 reference.
class AlwaysTransmitter final : public TransmitPolicy {
 public:
  bool decide(std::size_t /*t*/, std::span<const double> /*x*/) override {
    ++decisions_;
    ++transmissions_;
    return true;
  }
  double frequency_constraint() const override { return 1.0; }
  std::uint64_t transmissions() const override { return transmissions_; }
  std::uint64_t decisions() const override { return decisions_; }

 private:
  std::uint64_t transmissions_ = 0;
  std::uint64_t decisions_ = 0;
};

std::vector<std::unique_ptr<MeasurementSource>> sources_over_trace(
    const trace::Trace& trace) {
  std::vector<std::unique_ptr<MeasurementSource>> sources;
  sources.reserve(trace.num_nodes());
  for (std::size_t i = 0; i < trace.num_nodes(); ++i) {
    sources.push_back(std::make_unique<TraceSource>(trace, i));
  }
  return sources;
}

/// Contract checks that must run before the member initializers touch
/// sources.front() (the CentralStore is sized from it).
std::vector<std::unique_ptr<MeasurementSource>> validate_sources(
    std::vector<std::unique_ptr<MeasurementSource>> sources) {
  RESMON_REQUIRE(!sources.empty(), "FleetCollector needs >= 1 source");
  for (const auto& source : sources) {
    RESMON_REQUIRE(source != nullptr, "null MeasurementSource");
    RESMON_REQUIRE(
        source->num_resources() == sources.front()->num_resources(),
        "MeasurementSources disagree on num_resources");
  }
  return sources;
}

}  // namespace

FleetCollector::FleetCollector(
    const trace::Trace& trace, const PolicySpec& policy,
    const transport::ChannelOptions& channel_options,
    std::unique_ptr<transport::Link> link, obs::MetricsRegistry* metrics)
    : FleetCollector(sources_over_trace(trace), policy, channel_options,
                     std::move(link), metrics) {}

FleetCollector::FleetCollector(
    std::vector<std::unique_ptr<MeasurementSource>> sources,
    const PolicySpec& policy,
    const transport::ChannelOptions& channel_options,
    std::unique_ptr<transport::Link> link, obs::MetricsRegistry* metrics)
    : sources_(validate_sources(std::move(sources))),
      dims_(sources_.front()->num_resources()),
      policy_(policy),
      adaptive_{.max_frequency = policy.max_frequency,
                .v0 = policy.v0,
                .gamma = policy.gamma,
                .clamp_queue = policy.clamp_queue},
      deadband_{.target_frequency = policy.max_frequency},
      link_(link != nullptr
                ? std::move(link)
                : std::make_unique<transport::Channel>(channel_options)),
      store_(sources_.size(), dims_) {
  switch (policy_.kind) {
    case PolicyKind::kAdaptive: validate(adaptive_); break;
    case PolicyKind::kUniform: validate_budget(policy_.max_frequency); break;
    case PolicyKind::kAlways: break;
    case PolicyKind::kDeadband: validate(deadband_); break;
  }
  num_steps_ = MeasurementSource::unbounded();
  for (const auto& source : sources_) {
    num_steps_ = std::min(num_steps_, source->num_steps());
  }
  const std::size_t n = sources_.size();
  block_.resize(n * dims_);
  beta_.resize(n);
  outgoing_.values.reserve(dims_);
  // Initial per-node state of each rule (see policy_state()).
  const double initial_state = policy_.kind == PolicyKind::kUniform ? 1.0
                               : policy_.kind == PolicyKind::kDeadband
                                   ? deadband_.delta
                                   : 0.0;
  state_.assign(n, initial_state);
  last_sent_.resize(n * dims_);
  transmissions_.resize(n);
  if (metrics != nullptr) {
    decisions_total_ = &metrics->counter(
        "resmon_collect_decisions_total",
        "Per-node transmission decisions evaluated (N per step)");
    sends_total_ =
        &metrics->counter("resmon_collect_sends_total",
                          "Measurements pushed to the uplink (beta = 1)");
    link_bytes_ = &metrics->gauge(
        "resmon_collect_link_bytes_sent",
        "Cumulative wire bytes the uplink has carried (exact frame sizes)");
    store_complete_ = &metrics->gauge(
        "resmon_collect_store_complete",
        "1 once the central store has heard from every node, else 0");
    if (policy_.kind == PolicyKind::kAdaptive) {
      queue_hist_ = &queue_length_histogram(*metrics);
      queue_buckets_.resize(queue_hist_->bounds().size() + 1);
      budget_gauge(*metrics).set(policy_.max_frequency);
    }
  }
}

std::span<const std::uint8_t> FleetCollector::step(std::size_t t) {
  RESMON_REQUIRE(t == next_step_,
                 "FleetCollector::step must be called with consecutive t");
  RESMON_REQUIRE(t < num_steps_, "step beyond end of the shortest source");
  ++next_step_;

  const std::size_t n = num_nodes();
  for (std::size_t i = 0; i < n; ++i) {
    sources_[i]->measurement_into(t, {block_.data() + i * dims_, dims_});
  }
  const std::size_t sends = decide(t);

  // Sends happen in node order, so bandwidth accounting and the link's
  // drop/delay RNG draws follow node order too.
  outgoing_.step = t;
  for (std::size_t i = 0; i < n; ++i) {
    if (beta_[i] == 0) continue;
    const double* x = block_.data() + i * dims_;
    outgoing_.node = i;
    outgoing_.values.assign(x, x + dims_);
    link_->send(outgoing_);
  }
  for (const transport::MeasurementMessage& msg : link_->drain_into(inbox_)) {
    store_.apply(msg);
  }
  if (decisions_total_ != nullptr) {
    decisions_total_->inc(n);
    sends_total_->inc(sends);
    link_bytes_->set(static_cast<double>(link_->bytes_sent()));
    store_complete_->set(store_.complete() ? 1.0 : 0.0);
  }
  return beta_;
}

std::size_t FleetCollector::decide(std::size_t t) {
  const std::size_t n = num_nodes();
  const std::size_t d = dims_;
  const auto x = [&](std::size_t i) {
    return std::span<const double>(block_.data() + i * d, d);
  };
  const auto z = [&](std::size_t i) {
    return std::span<double>(last_sent_.data() + i * d, d);
  };
  switch (policy_.kind) {
    case PolicyKind::kAdaptive: {
      const double v_t = adaptive_weight(adaptive_, t);
      double penalty = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        beta_[i] = adaptive_decide(adaptive_, v_t, x(i),
                                   transmissions_[i] == 0, z(i), state_[i],
                                   penalty);
      }
      break;
    }
    case PolicyKind::kUniform:
      for (std::size_t i = 0; i < n; ++i) {
        beta_[i] = uniform_decide(policy_.max_frequency, state_[i]);
      }
      break;
    case PolicyKind::kAlways:
      std::fill(beta_.begin(), beta_.end(), 1);
      break;
    case PolicyKind::kDeadband:
      for (std::size_t i = 0; i < n; ++i) {
        beta_[i] = deadband_decide(deadband_, x(i), transmissions_[i] == 0,
                                   z(i), state_[i]);
      }
      break;
  }
  std::size_t sends = 0;
  for (std::size_t i = 0; i < n; ++i) {
    transmissions_[i] += beta_[i];
    sends += beta_[i];
  }
  if (queue_hist_ != nullptr) {
    // One batch per slot: bucket locally with the histogram's own rule.
    double sum = 0.0;
    for (const double q : state_) {
      ++queue_buckets_[queue_hist_->bucket_index(q)];
      sum += q;
    }
    queue_hist_->observe_counts(queue_buckets_, sum);
    std::fill(queue_buckets_.begin(), queue_buckets_.end(), 0);
  }
  return sends;
}

double FleetCollector::average_actual_frequency() const {
  // Every node decides once per step, so each node's actual frequency is
  // its transmissions over the steps taken.
  double s = 0.0;
  for (const std::uint64_t tx : transmissions_) {
    s += next_step_ == 0 ? 0.0
                         : static_cast<double>(tx) /
                               static_cast<double>(next_step_);
  }
  return s / static_cast<double>(transmissions_.size());
}

std::function<std::unique_ptr<TransmitPolicy>()> make_policy_factory(
    PolicyKind kind, double max_frequency, double v0, double gamma,
    bool clamp_queue, obs::MetricsRegistry* metrics) {
  switch (kind) {
    case PolicyKind::kAdaptive: {
      AdaptiveOptions opts;
      opts.max_frequency = max_frequency;
      opts.v0 = v0;
      opts.gamma = gamma;
      opts.clamp_queue = clamp_queue;
      opts.metrics = metrics;
      return [opts]() -> std::unique_ptr<TransmitPolicy> {
        return std::make_unique<AdaptiveTransmitter>(opts);
      };
    }
    case PolicyKind::kUniform:
      return [max_frequency]() -> std::unique_ptr<TransmitPolicy> {
        return std::make_unique<UniformTransmitter>(max_frequency);
      };
    case PolicyKind::kAlways:
      return []() -> std::unique_ptr<TransmitPolicy> {
        return std::make_unique<AlwaysTransmitter>();
      };
    case PolicyKind::kDeadband: {
      DeadbandOptions opts;
      opts.target_frequency = max_frequency;
      return [opts]() -> std::unique_ptr<TransmitPolicy> {
        return std::make_unique<DeadbandTransmitter>(opts);
      };
    }
  }
  throw InvalidArgument("unknown policy kind");
}

}  // namespace resmon::collect
