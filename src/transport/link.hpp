// Link: the uplink abstraction between local nodes and the controller.
//
// A Link carries MeasurementMessages from the fleet to the central node and
// accounts for the traffic it moved. Implementations:
//   - transport::Channel      — in-process queue with drop/delay injection
//                               (the deterministic simulation default);
//   - net::LoopbackLink       — Channel wrapped in the real wire codec, so
//                               deterministic runs exercise encode/decode;
//   - faultnet::FaultyLink    — a FaultSpec's schedule over any inner link;
//   - real sockets            — net::Agent / net::Controller move the same
//                               frames over TCP (they sit outside this
//                               interface because one controller serves many
//                               connections).
//
// The per-slot calls allocate nothing once warm: send() takes the message
// by reference and the link copies it into storage it recycles, and
// drain_into() fills the caller's vector in place, reusing the capacity of
// the elements it already holds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "transport/wire_format.hpp"

namespace resmon::transport {

/// One uplink message: node i's measurement x_{i,t}.
struct MeasurementMessage {
  std::size_t node = 0;
  std::size_t step = 0;
  std::vector<double> values;

  /// Serialized size used for bandwidth accounting: the exact byte count of
  /// this message as one wire-protocol frame (header + payload; layout in
  /// transport/wire_format.hpp). net::wire::encode() produces exactly this many
  /// bytes, so simulated and real transports report identical bandwidth.
  std::size_t wire_size() const {
    return net::wire::measurement_frame_size(values.size());
  }
};

/// Uplink seen from the simulation driver: nodes send, the central node
/// drains once per slot, and the link reports what the fleet paid for.
class Link {
 public:
  virtual ~Link() = default;

  /// Enqueue a copy of `message` for delivery to the central node.
  virtual void send(const MeasurementMessage& message) = 0;

  /// Deliver the messages due this slot into `out`: they overwrite its
  /// first elements (growing it only when it is too short) and the
  /// returned span is that prefix. Elements past the prefix are left as
  /// spare storage for later slots, so a caller that passes the same
  /// vector every slot stops allocating once it has seen its largest slot.
  virtual std::span<MeasurementMessage> drain_into(
      std::vector<MeasurementMessage>& out) = 0;

  /// drain_into() a fresh vector: the allocating convenience form.
  std::vector<MeasurementMessage> drain();

  /// Messages accepted but not yet delivered.
  virtual std::size_t pending() const = 0;

  /// Traffic accounting. bytes_sent() counts real encoded frame bytes
  /// (senders pay for dropped messages too).
  virtual std::uint64_t messages_sent() const = 0;
  virtual std::uint64_t bytes_sent() const = 0;
  virtual std::uint64_t messages_dropped() const = 0;
};

}  // namespace resmon::transport
