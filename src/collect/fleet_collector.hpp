// FleetCollector: runs the transmission rule of every node against a trace
// (or any MeasurementSources) and maintains the central node's view (z_t)
// through a Link.
//
// This is the "measurement collection" half of the paper's system; the core
// MonitoringPipeline layers clustering and forecasting on top of it.
//
// A slot moves as one N x d block: every source writes its node's row of a
// reused measurement block, one pass over flat per-node policy state
// (queues or credits, last-sent N x d, transmission counts) decides beta
// for the whole fleet, and the transmitted rows go through the link into
// the store. The pass calls the same inline per-node rule steps as the
// TransmitPolicy classes (adaptive_decide, uniform_decide,
// deadband_decide), so a fleet decides exactly what N independent
// policies would. Nothing on this path allocates once every node has sent
// and the link has carried its largest slot.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "collect/adaptive_transmitter.hpp"
#include "collect/deadband_transmitter.hpp"
#include "collect/measurement_source.hpp"
#include "collect/transmit_policy.hpp"
#include "obs/metrics.hpp"
#include "trace/trace.hpp"
#include "transport/channel.hpp"
#include "transport/link.hpp"

namespace resmon::collect {

/// Which transmission policy a fleet uses.
enum class PolicyKind {
  kAdaptive,  ///< §V-A drift-plus-penalty (the paper's algorithm)
  kUniform,   ///< fixed-interval baseline (§VI-B)
  kAlways,    ///< transmit every step (B = 1); ground-truth reference
  kDeadband,  ///< calibrated send-on-delta (ablation; refs [13]-[17])
};

/// The transmission policy every node of a fleet runs: its kind and the
/// knobs make_policy_factory() takes.
struct PolicySpec {
  PolicyKind kind = PolicyKind::kAdaptive;
  double max_frequency = 0.3;  ///< B (kDeadband: its target frequency)
  double v0 = 1e-12;           ///< V_0 of eq. (8) (kAdaptive only)
  double gamma = 0.65;         ///< gamma of eq. (8) (kAdaptive only)
  bool clamp_queue = false;    ///< see AdaptiveOptions::clamp_queue
};

/// Runs the collection stage: each time step, every node observes its
/// measurement, the fleet pass decides who transmits, and transmitted
/// measurements land in the central store.
class FleetCollector {
 public:
  /// Builds a fleet over every node of `trace` running `policy`.
  /// `channel_options` injects uplink failures (drops/delays); the default
  /// is a reliable link. `link` replaces the default in-process Channel
  /// (e.g. with a net::LoopbackLink that runs the real wire codec); when
  /// provided, `channel_options` is ignored — configure the link directly.
  /// `metrics` (non-owning, may be nullptr) receives fleet-level collection
  /// series (resmon_collect_*; see DESIGN.md "Observability").
  FleetCollector(const trace::Trace& trace, const PolicySpec& policy,
                 const transport::ChannelOptions& channel_options = {},
                 std::unique_ptr<transport::Link> link = nullptr,
                 obs::MetricsRegistry* metrics = nullptr);

  /// Same, but over arbitrary MeasurementSources (one per node) instead of
  /// a trace — the host-collection path (procfs sampling, recorded-series
  /// replay). All sources must agree on num_resources(). Sources are read
  /// serially in node order; live ones may block inside measurement_into().
  FleetCollector(std::vector<std::unique_ptr<MeasurementSource>> sources,
                 const PolicySpec& policy,
                 const transport::ChannelOptions& channel_options = {},
                 std::unique_ptr<transport::Link> link = nullptr,
                 obs::MetricsRegistry* metrics = nullptr);

  /// Advance one time step. Must be called with consecutive t starting at 0.
  /// Returns the per-node transmission indicators beta_t (1 = sent), valid
  /// until the next step().
  std::span<const std::uint8_t> step(std::size_t t);

  const transport::CentralStore& store() const { return store_; }
  const transport::Link& link() const { return *link_; }

  /// Transmissions node `node` has made so far.
  std::uint64_t transmissions(std::size_t node) const {
    return transmissions_[node];
  }

  /// Per-node policy state after the last step: Q_i(t) for kAdaptive, the
  /// send credit for kUniform, the threshold delta for kDeadband, 0 for
  /// kAlways.
  std::span<const double> policy_state() const { return state_; }

  /// Average actual transmission frequency across the fleet.
  double average_actual_frequency() const;

  std::size_t num_nodes() const { return sources_.size(); }

 private:
  /// Decides beta for every node from block_ into beta_, updating the
  /// policy state; returns the number of senders.
  std::size_t decide(std::size_t t);

  std::vector<std::unique_ptr<MeasurementSource>> sources_;
  std::size_t num_steps_ = 0;  ///< min over sources (cached)
  std::size_t dims_ = 0;       ///< d, shared by every source
  PolicySpec policy_;
  AdaptiveOptions adaptive_;  ///< policy_ as the adaptive rule's options
  DeadbandOptions deadband_;  ///< policy_ as the deadband rule's options
  std::unique_ptr<transport::Link> link_;
  transport::CentralStore store_;
  std::size_t next_step_ = 0;

  // Slot storage, reused every step.
  std::vector<double> block_;        ///< N x d measurements of this slot
  std::vector<std::uint8_t> beta_;   ///< N decisions of this slot
  transport::MeasurementMessage outgoing_;
  std::vector<transport::MeasurementMessage> inbox_;  ///< drain_into() target

  // Flat per-node policy state.
  std::vector<double> state_;       ///< see policy_state()
  std::vector<double> last_sent_;   ///< N x d; row i valid once i has sent
  std::vector<std::uint64_t> transmissions_;

  // Optional metrics (all nullptr when no registry was given).
  obs::Counter* decisions_total_ = nullptr;
  obs::Counter* sends_total_ = nullptr;
  obs::Gauge* link_bytes_ = nullptr;
  obs::Gauge* store_complete_ = nullptr;
  obs::Histogram* queue_hist_ = nullptr;  ///< kAdaptive only
  std::vector<std::uint64_t> queue_buckets_;  ///< one slot's bucket counts
};

/// Convenience: a per-node policy factory for the given kind and budget B
/// (net::Agent, the scenario runner and benches that drive single nodes).
/// `metrics` (non-owning) flows into AdaptiveOptions::metrics so the
/// adaptive transmitters emit their queue-backlog series; the other policy
/// kinds are covered by the FleetCollector-level counters.
std::function<std::unique_ptr<TransmitPolicy>()> make_policy_factory(
    PolicyKind kind, double max_frequency, double v0 = 1e-12,
    double gamma = 0.65, bool clamp_queue = false,
    obs::MetricsRegistry* metrics = nullptr);

}  // namespace resmon::collect
