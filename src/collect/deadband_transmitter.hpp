// Send-on-delta ("deadband") transmission policy.
//
// The classic adaptive-sampling rule from the sensor-network literature the
// paper cites ([13]-[17]): transmit when the measurement has moved more
// than a threshold delta away from the last transmitted value. A fixed
// delta gives no control over the transmission frequency, which is exactly
// the shortcoming §II points out; this implementation therefore also offers
// a calibrated mode that adapts delta multiplicatively to track a target
// frequency B. Used as an ablation baseline against the paper's
// drift-plus-penalty rule (bench/ablation_policies).
//
// As with the adaptive rule, the decision is one inline step over a node's
// plain state, shared by DeadbandTransmitter and FleetCollector's fleet
// pass.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>

#include "collect/transmit_policy.hpp"
#include "common/error.hpp"
#include "common/matrix.hpp"

namespace resmon::collect {

struct DeadbandOptions {
  /// Initial (or fixed) threshold on the per-dimension RMS deviation.
  double delta = 0.05;
  /// Target frequency for calibration; <= 0 disables calibration and the
  /// policy runs with the fixed delta (classic send-on-delta).
  double target_frequency = 0.3;
  /// Multiplicative step for the calibration: after a transmission delta
  /// grows by (1 + rate * (1 - B)), after silence it shrinks by
  /// (1 - rate * B), so in equilibrium transmissions happen a fraction B
  /// of the time.
  double adaptation_rate = 0.05;
  /// Bounds for the calibrated threshold.
  double min_delta = 1e-4;
  double max_delta = 1.0;
};

/// Rejects a non-positive delta, a target above 1, a rate outside [0,1)
/// and empty or inverted delta bounds.
inline void validate(const DeadbandOptions& options) {
  RESMON_REQUIRE(options.delta > 0.0, "deadband delta must be positive");
  RESMON_REQUIRE(options.target_frequency <= 1.0,
                 "target frequency must be <= 1");
  RESMON_REQUIRE(options.adaptation_rate >= 0.0 &&
                     options.adaptation_rate < 1.0,
                 "adaptation rate must be in [0,1)");
  RESMON_REQUIRE(options.min_delta > 0.0 &&
                     options.min_delta <= options.max_delta,
                 "invalid delta bounds");
}

/// One node's send-on-delta decision for measurement `x`. `delta` is the
/// node's (calibrated) threshold, starting at options.delta, and
/// `last_sent` its last transmitted measurement (x.size() values, unread
/// while `first`); both are updated. Returns beta.
inline bool deadband_decide(const DeadbandOptions& options,
                            std::span<const double> x, bool first,
                            std::span<double> last_sent, double& delta) {
  bool transmit;
  if (first) {
    transmit = true;  // central node has nothing yet
  } else {
    const double rms_deviation = std::sqrt(squared_distance(x, last_sent) /
                                           static_cast<double>(x.size()));
    transmit = rms_deviation > delta;
  }

  // Calibration: nudge the threshold so the long-run transmit fraction
  // approaches the target B.
  const double b = options.target_frequency;
  if (b > 0.0) {
    if (transmit) {
      delta *= 1.0 + options.adaptation_rate * (1.0 - b);
    } else {
      delta *= 1.0 - options.adaptation_rate * b;
    }
    delta = std::clamp(delta, options.min_delta, options.max_delta);
  }

  if (transmit) std::copy(x.begin(), x.end(), last_sent.begin());
  return transmit;
}

class DeadbandTransmitter final : public TransmitPolicy {
 public:
  explicit DeadbandTransmitter(const DeadbandOptions& options);

  bool decide(std::size_t t, std::span<const double> x) override;
  double frequency_constraint() const override {
    return options_.target_frequency > 0.0 ? options_.target_frequency : 1.0;
  }
  std::uint64_t transmissions() const override { return transmissions_; }
  std::uint64_t decisions() const override { return decisions_; }

  /// Current (possibly calibrated) threshold.
  double delta() const { return delta_; }

 private:
  DeadbandOptions options_;
  double delta_;
  std::vector<double> last_sent_;  // sized by the first decide()
  std::uint64_t transmissions_ = 0;
  std::uint64_t decisions_ = 0;
};

}  // namespace resmon::collect
