// In-process transport between local nodes and the central controller.
//
// The paper's system is a star topology: every machine may push its latest
// measurement to the controller each slot. Channel simulates that link and
// accounts for messages/bytes so experiments can report the communication
// cost a transmission policy actually incurs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "transport/link.hpp"

namespace resmon::transport {

/// Failure-injection knobs for the uplink. Defaults model a reliable
/// in-order link; drops/delays simulate a congested or flaky network.
struct ChannelOptions {
  /// Probability that a sent message is lost. Lost messages still consume
  /// uplink bandwidth (the sender paid for the transmission).
  double drop_probability = 0.0;
  /// Maximum extra delivery delay, in drain() slots; each message gets a
  /// uniform delay in [0, max_delay_slots], so messages can arrive out of
  /// order.
  std::size_t max_delay_slots = 0;
  /// Seed of the drop/delay RNG. 0 means "unset": a Channel constructed
  /// directly uses it literally, but MonitoringPipeline replaces an unset
  /// seed with one derived from PipelineOptions::seed, so two pipelines
  /// with different seeds never share identical drop/delay realizations.
  /// Set any nonzero value to pin the channel RNG independently of the
  /// pipeline seed.
  std::uint64_t seed = 0;
};

/// In-process message channel with traffic accounting and optional
/// drop/delay failure injection.
class Channel final : public Link {
 public:
  Channel() = default;
  explicit Channel(const ChannelOptions& options);

  /// Enqueue a copy of `message` for delivery to the central node.
  void send(const MeasurementMessage& message) override;

  /// Deliver the messages due this slot, in send order (the central node
  /// drains the channel once per time slot; delayed messages surface
  /// later).
  std::span<MeasurementMessage> drain_into(
      std::vector<MeasurementMessage>& out) override;

  std::size_t pending() const override { return in_flight_; }
  std::uint64_t messages_sent() const override { return messages_sent_; }
  std::uint64_t bytes_sent() const override { return bytes_sent_; }
  std::uint64_t messages_dropped() const override {
    return messages_dropped_;
  }

 private:
  struct InFlight {
    MeasurementMessage message;
    std::size_t slots_remaining = 0;
  };

  ChannelOptions options_;
  Rng rng_;
  /// Messages in flight are queue_[0, in_flight_) in send order; entries
  /// past it keep their value storage for the next send().
  std::vector<InFlight> queue_;
  std::size_t in_flight_ = 0;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t messages_dropped_ = 0;
};

/// The central node's view of the system: z_t of §IV — the most recent
/// measurement received from each node, with its age.
class CentralStore {
 public:
  CentralStore(std::size_t num_nodes, std::size_t num_resources);

  /// Record a received measurement. Messages may arrive out of order after
  /// delays; stale messages (older than what is stored) are ignored.
  void apply(const MeasurementMessage& message);

  std::size_t num_nodes() const { return num_nodes_; }
  std::size_t num_resources() const { return num_resources_; }

  /// True once at least one measurement has been received from `node`.
  bool has(std::size_t node) const { return last_step_[node] >= 0; }

  /// True once every node has reported at least once.
  bool complete() const { return nodes_heard_ == num_nodes_; }

  /// z_{i,t}: the stored measurement for `node`. Requires has(node).
  const std::vector<double>& stored(std::size_t node) const;

  /// Time step of the stored measurement. Requires has(node).
  std::size_t last_update_step(std::size_t node) const;

  /// Age of the stored measurement at `current_step` (p in §IV).
  std::size_t staleness(std::size_t node, std::size_t current_step) const;

  /// Scalar view: stored value of one resource for every node (the
  /// clustering input when clustering per-resource scalars).
  std::vector<double> resource_snapshot(std::size_t resource) const;

 private:
  std::size_t num_nodes_;
  std::size_t num_resources_;
  std::vector<std::vector<double>> values_;
  std::vector<long long> last_step_;  // -1 = nothing received yet
  std::size_t nodes_heard_ = 0;       // nodes with last_step_ >= 0
};

}  // namespace resmon::transport
