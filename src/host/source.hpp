// The host-collection MeasurementSources: how HostSampler and recordings
// plug into the unchanged FleetCollector / resmon_agent slot loop.
//
//   ProcfsSamplerSource  live sampling, paced to a fixed interval on the
//                        monotonic clock, optionally teeing every sample
//                        into a RecordingWriter (--record)
//   ReplaySource         a loaded Recording, bit-exact, zero clock or
//                        procfs reads (--replay)
//
// Clock and sleep are injected std::functions (defaulting to the
// lint-allowlisted helpers in clock.hpp), so unit tests pace a
// ProcfsSamplerSource with a hand-advanced fake clock and stay fully
// deterministic.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>

#include "collect/measurement_source.hpp"
#include "host/recording.hpp"
#include "host/sampler.hpp"

namespace resmon::host {

class ProcfsSamplerSource final : public collect::MeasurementSource {
 public:
  struct Options {
    std::uint64_t interval_ms = 100;
    /// Monotonic clock / sleep hooks; nullptr selects the real ones.
    std::function<std::uint64_t()> now_ms;
    std::function<void(std::uint64_t)> sleep_ms;
    /// Optional record tee (non-owning; caller calls finish()).
    RecordingWriter* recorder = nullptr;
  };

  /// `sampler` is non-owning and must outlive the source.
  ProcfsSamplerSource(HostSampler& sampler, Options options);

  std::size_t num_resources() const override {
    return HostSampler::kNumResources;
  }
  /// Samples the host, pacing slot t to start_time + t * interval_ms.
  void measurement_into(std::size_t t, std::span<double> out) override;

 private:
  HostSampler& sampler_;
  Options options_;
  bool started_ = false;
  std::uint64_t first_sample_ms_ = 0;
};

/// Replays a loaded Recording as a bounded source.
class ReplaySource final : public collect::MeasurementSource {
 public:
  explicit ReplaySource(Recording recording)
      : recording_(std::move(recording)) {
    RESMON_REQUIRE(!recording_.rows.empty(),
                   "ReplaySource: recording has no samples");
  }

  std::size_t num_resources() const override {
    return recording_.num_resources();
  }
  std::size_t num_steps() const override { return recording_.rows.size(); }
  void measurement_into(std::size_t t, std::span<double> out) override {
    RESMON_REQUIRE(t < recording_.rows.size(),
                   "ReplaySource: step beyond the end of the recording");
    const std::vector<double>& row = recording_.rows[t];
    RESMON_REQUIRE(row.size() == out.size(),
                   "ReplaySource: row width differs from num_resources");
    std::copy(row.begin(), row.end(), out.begin());
  }

  const Recording& recording() const { return recording_; }

 private:
  Recording recording_;
};

}  // namespace resmon::host
