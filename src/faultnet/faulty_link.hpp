// FaultyLink: fault-injecting wrapper around any transport::Link.
//
// Composes over the uplink the pipeline already uses (normally a
// net::LoopbackLink, so the real wire codec still runs underneath) and
// applies a FaultSpec's schedule on the way through:
//
//   drop        message vanishes (sender still pays bandwidth)
//   duplicate   message is enqueued twice (receiver dedups by step)
//   corrupt     message is encoded, one payload byte is flipped, and the
//               mutilated frame is pushed through a real FrameDecoder —
//               which must CRC-reject it; the reject is counted and the
//               message is lost, exactly like the TCP path
//   delay       message surfaces `k` drains late
//   stall       messages inside the window are held and flushed after it
//   partition   messages inside the window are lost
//   reorder     a delivered batch is deterministically shuffled
//
// drain_into() is the slot clock (the pipeline drains once per step),
// matching transport::Channel's delay semantics; held messages live in
// recycled entries, so a warm link allocates nothing per message. All decisions come from the
// order-independent FaultInjector, so a seeded spec yields one exact fault
// realization per run.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "faultnet/injector.hpp"
#include "obs/metrics.hpp"
#include "transport/channel.hpp"
#include "transport/link.hpp"

namespace resmon::faultnet {

class FaultyLink final : public transport::Link {
 public:
  /// Wraps `inner` (owned). `metrics` (non-owning, may be nullptr) receives
  /// resmon_faultnet_injected_total{fault=...} and
  /// resmon_faultnet_crc_rejects_total.
  FaultyLink(const FaultSpec& spec, std::unique_ptr<transport::Link> inner,
             obs::MetricsRegistry* metrics = nullptr);

  void send(const transport::MeasurementMessage& message) override;
  std::span<transport::MeasurementMessage> drain_into(
      std::vector<transport::MeasurementMessage>& out) override;

  std::size_t pending() const override {
    return inner_->pending() + num_held_;
  }
  /// Sender-side accounting: every send() counts (faulted sends included —
  /// the sender paid for the transmission), mirroring transport::Channel.
  std::uint64_t messages_sent() const override { return messages_sent_; }
  std::uint64_t bytes_sent() const override { return bytes_sent_; }
  /// Messages lost to injected faults (drop/corrupt/partition) plus
  /// whatever the inner link dropped on its own.
  std::uint64_t messages_dropped() const override {
    return faulted_drops_ + inner_->messages_dropped();
  }

  const FaultInjector& injector() const { return injector_; }
  const transport::Link& inner() const { return *inner_; }
  /// Corrupted frames rejected by the wire decoder's CRC check.
  std::uint64_t crc_rejects() const { return crc_rejects_; }

 private:
  struct Held {
    transport::MeasurementMessage message;
    std::size_t release_at = 0;  ///< drain index at which it surfaces
  };

  /// Keep a copy of `message` until the drain with index `release_at`.
  void hold(const transport::MeasurementMessage& message,
            std::size_t release_at);

  /// Encode, flip one payload byte, and require the decoder to reject it.
  void corrupt_and_reject(const transport::MeasurementMessage& message);

  FaultInjector injector_;
  std::unique_ptr<transport::Link> inner_;
  /// Held messages are held_[0, num_held_) in hold order; entries past it
  /// keep their value storage for the next hold().
  std::vector<Held> held_;
  std::size_t num_held_ = 0;
  std::size_t drain_count_ = 0;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t faulted_drops_ = 0;
  std::uint64_t crc_rejects_ = 0;
  obs::Counter* m_crc_rejects_ = nullptr;
};

}  // namespace resmon::faultnet
