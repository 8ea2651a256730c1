#include "host/source.hpp"

#include <algorithm>

#include "host/clock.hpp"

namespace resmon::host {

ProcfsSamplerSource::ProcfsSamplerSource(HostSampler& sampler,
                                         Options options)
    : sampler_(sampler), options_(std::move(options)) {
  RESMON_REQUIRE(options_.interval_ms > 0, "interval_ms must be positive");
  if (!options_.now_ms) options_.now_ms = monotonic_ms;
  if (!options_.sleep_ms) options_.sleep_ms = sleep_ms;
}

void ProcfsSamplerSource::measurement_into(std::size_t t,
                                           std::span<double> out) {
  if (started_) {
    // Pace against the first sample's timestamp, not the previous slot's,
    // so per-slot jitter doesn't accumulate into drift.
    const std::uint64_t deadline =
        first_sample_ms_ + t * options_.interval_ms;
    const std::uint64_t now = options_.now_ms();
    if (now < deadline) options_.sleep_ms(deadline - now);
  }
  const std::uint64_t start = options_.now_ms();
  if (!started_) {
    started_ = true;
    first_sample_ms_ = start;
  }
  const std::vector<double> x = sampler_.sample(start);
  sampler_.observe_latency_ms(
      static_cast<double>(options_.now_ms() - start));
  if (options_.recorder != nullptr) options_.recorder->append(x, start);
  RESMON_REQUIRE(x.size() == out.size(),
                 "ProcfsSamplerSource: sample width differs from "
                 "num_resources");
  std::copy(x.begin(), x.end(), out.begin());
}

}  // namespace resmon::host
