// The paper's adaptive transmission algorithm (§V-A).
//
// A Lyapunov drift-plus-penalty rule: each node maintains a virtual queue
// Q_i(t) measuring how much the frequency budget B_i has been overdrawn, and
// transmits when V_t * F_{i,t}(0) - the staleness penalty of *not*
// transmitting - outweighs the queue pressure:
//
//   beta_{i,t} = argmin_{beta in {0,1}}  V_t F_{i,t}(beta) + Q_i(t) (beta - B_i)
//   Q_i(t+1)  = Q_i(t) + beta_{i,t} - B_i                       (eq. 9)
//   V_t       = V_0 (t+1)^gamma                                  (eq. 8)
//   F_{i,t}(0) = (1/d) || z_{i,t} - x_{i,t} ||^2,  F_{i,t}(1) = 0 (eq. 6)
//
// which reduces to: transmit iff Q_i(t) < V_t * F_{i,t}(0).
//
// The rule is written once, as the inline steps below over one node's plain
// state; AdaptiveTransmitter runs them for a single node and
// FleetCollector's fleet pass runs them over flat per-node arrays, so both
// make the same decisions bit for bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>

#include "collect/transmit_policy.hpp"
#include "common/error.hpp"
#include "common/matrix.hpp"
#include "obs/metrics.hpp"

namespace resmon::collect {

/// Tunables of the adaptive transmitter. Paper defaults (§VI-A2):
/// B = 0.3, V0 = 1e-12, gamma = 0.65.
struct AdaptiveOptions {
  double max_frequency = 0.3;  ///< B_i: long-run transmission frequency cap.
  double v0 = 1e-12;           ///< V_0 of eq. (8).
  double gamma = 0.65;         ///< gamma of eq. (8); must be in (0,1).

  /// The paper's eq. (9) lets Q_i(t) go negative, which forces periodic
  /// transmissions even when the measurement has not changed. Enabling the
  /// standard Lyapunov clamp Q <- max(Q + Y, 0) lets a node stay silent
  /// through flat periods (frequency <= B instead of == B). Default follows
  /// the paper.
  bool clamp_queue = false;

  /// Optional metrics sink (non-owning). All transmitters built from one
  /// options struct share aggregate fleet-level series: the virtual-queue
  /// backlog distribution and the configured budget B. nullptr = no
  /// instrumentation, zero overhead on the hot path beyond a null check.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Rejects a frequency budget B outside (0,1].
inline void validate_budget(double max_frequency) {
  RESMON_REQUIRE(max_frequency > 0.0 && max_frequency <= 1.0,
                 "B must be in (0,1]");
}

/// Rejects options outside the rule's domain (B in (0,1], V0 > 0,
/// gamma in (0,1)).
inline void validate(const AdaptiveOptions& options) {
  validate_budget(options.max_frequency);
  RESMON_REQUIRE(options.v0 > 0.0, "V0 must be positive");
  RESMON_REQUIRE(options.gamma > 0.0 && options.gamma < 1.0,
                 "gamma must be in (0,1)");
}

/// V_t of eq. (8), the same for every node of a slot. `t` is 0-based here;
/// the paper indexes slots from 1, so paper-t = t + 1 and
/// V_t = V0 * (paper-t + 1)^gamma.
inline double adaptive_weight(const AdaptiveOptions& options, std::size_t t) {
  return options.v0 *
         std::pow(static_cast<double>(t) + 2.0, options.gamma);
}

/// One node's decision for measurement `x` under weight `v_t`. `queue` is
/// Q_i(t) and `last_sent` z_{i,t} (x.size() values, unread while `first`:
/// nothing has been sent yet); both are updated. Returns beta and leaves
/// F_{i,t}(0) in `penalty`.
inline bool adaptive_decide(const AdaptiveOptions& options, double v_t,
                            std::span<const double> x, bool first,
                            std::span<double> last_sent, double& queue,
                            double& penalty) {
  bool transmit;
  if (first) {
    // Nothing stored at the central node yet: F(0) is effectively infinite,
    // so the first measurement is always sent.
    penalty = 0.0;
    transmit = true;
  } else {
    // F_{i,t}(0) of eq. (6): mean squared deviation between the current
    // measurement and what the central node still holds.
    penalty = squared_distance(x, last_sent) / static_cast<double>(x.size());
    // Minimizing eq. (7) over beta in {0,1}:
    //   cost(1) = Q * (1 - B),   cost(0) = V_t * F - Q * B
    // => transmit iff Q < V_t * F.
    transmit = queue < v_t * penalty;
  }
  queue += (transmit ? 1.0 : 0.0) - options.max_frequency;  // eq. (9)
  if (options.clamp_queue) queue = std::max(queue, 0.0);
  if (transmit) std::copy(x.begin(), x.end(), last_sent.begin());
  return transmit;
}

/// One node's fixed-interval decision (UniformTransmitter): `credit`
/// starts at 1.0 and gains B per slot; a transmission spends 1.
inline bool uniform_decide(double max_frequency, double& credit) {
  credit += max_frequency;
  if (credit >= 1.0) {
    credit -= 1.0;
    return true;
  }
  return false;
}

/// The adaptive series in `metrics`, shared by every adaptive transmitter
/// and fleet that registers them: resmon_collect_queue_length (Q_i(t)
/// after each decision) and resmon_collect_budget_b (B).
obs::Histogram& queue_length_histogram(obs::MetricsRegistry& metrics);
obs::Gauge& budget_gauge(obs::MetricsRegistry& metrics);

/// Drift-plus-penalty transmission policy for a single node.
class AdaptiveTransmitter final : public TransmitPolicy {
 public:
  explicit AdaptiveTransmitter(const AdaptiveOptions& options);

  bool decide(std::size_t t, std::span<const double> x) override;
  double frequency_constraint() const override {
    return options_.max_frequency;
  }
  std::uint64_t transmissions() const override { return transmissions_; }
  std::uint64_t decisions() const override { return decisions_; }

  /// Current virtual queue length Q_i(t) (exposed for tests/diagnostics).
  double queue_length() const { return queue_; }

  /// Penalty F_{i,t}(0) that the most recent decision evaluated.
  double last_penalty() const { return last_penalty_; }

 private:
  AdaptiveOptions options_;
  double queue_ = 0.0;
  double last_penalty_ = 0.0;
  std::vector<double> last_sent_;  // z_{i,t}; sized by the first decide()
  std::uint64_t transmissions_ = 0;
  std::uint64_t decisions_ = 0;
  obs::Histogram* queue_hist_ = nullptr;  // backlog Q_i(t) after each decide
};

/// Baseline (§VI-B): transmit at a fixed interval so that the average
/// frequency equals B. Deterministic credit accumulation: transmit whenever
/// accumulated credit reaches one message.
class UniformTransmitter final : public TransmitPolicy {
 public:
  explicit UniformTransmitter(double max_frequency);

  bool decide(std::size_t t, std::span<const double> x) override;
  double frequency_constraint() const override { return max_frequency_; }
  std::uint64_t transmissions() const override { return transmissions_; }
  std::uint64_t decisions() const override { return decisions_; }

 private:
  double max_frequency_;
  double credit_;
  std::uint64_t transmissions_ = 0;
  std::uint64_t decisions_ = 0;
};

}  // namespace resmon::collect
