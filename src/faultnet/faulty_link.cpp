#include "faultnet/faulty_link.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "net/wire.hpp"
#include "transport/channel.hpp"

namespace resmon::faultnet {

namespace {

/// Salt for picking which payload byte a corrupt fault flips.
constexpr std::uint64_t kSaltCorruptByte = 0x11;
/// Salt stream for the deterministic batch shuffle.
constexpr std::uint64_t kSaltShuffle = 0x12;

}  // namespace

FaultyLink::FaultyLink(const FaultSpec& spec,
                       std::unique_ptr<transport::Link> inner,
                       obs::MetricsRegistry* metrics)
    : injector_(spec, metrics), inner_(std::move(inner)) {
  RESMON_REQUIRE(inner_ != nullptr, "FaultyLink needs an inner link");
  if (metrics != nullptr) {
    m_crc_rejects_ = &metrics->counter(
        "resmon_faultnet_crc_rejects_total",
        "Corrupted frames rejected by the wire decoder's CRC check");
  }
}

void FaultyLink::send(const transport::MeasurementMessage& message) {
  ++messages_sent_;
  bytes_sent_ += message.wire_size();
  const FaultDecision d = injector_.decide(message.node, message.step);
  if (d.partitioned) {
    injector_.count(FaultKind::kPartition);
    ++faulted_drops_;
    return;
  }
  if (d.stalled) {
    injector_.count(FaultKind::kStall);
    // Held until the first drain after the stall window: the connection is
    // half-open, the peer's buffered bytes arrive when it recovers.
    std::size_t release = message.step;
    for (const SlotWindow& w : injector_.spec().stalls) {
      if (w.contains(message.step)) release = std::max(release, w.to + 1);
    }
    hold(message, release);
    return;
  }
  if (d.drop) {
    injector_.count(FaultKind::kDrop);
    ++faulted_drops_;
    return;
  }
  if (d.corrupt) {
    injector_.count(FaultKind::kCorrupt);
    corrupt_and_reject(message);
    ++faulted_drops_;
    return;
  }
  if (d.delay_slots > 0) {
    injector_.count(FaultKind::kDelay);
    hold(message, message.step + d.delay_slots);
    return;
  }
  if (d.duplicate) {
    injector_.count(FaultKind::kDuplicate);
    inner_->send(message);
  }
  inner_->send(message);
}

std::span<transport::MeasurementMessage> FaultyLink::drain_into(
    std::vector<transport::MeasurementMessage>& out) {
  // drain_into() is the slot clock: the pipeline drains exactly once per
  // step, so drain index == current slot (matching transport::Channel).
  // Due messages go to the inner link in hold order; the rest keep theirs.
  const std::size_t now = drain_count_++;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < num_held_; ++i) {
    if (held_[i].release_at <= now) {
      inner_->send(held_[i].message);
    } else {
      if (kept != i) std::swap(held_[kept], held_[i]);
      ++kept;
    }
  }
  num_held_ = kept;
  const std::span<transport::MeasurementMessage> batch =
      inner_->drain_into(out);
  if (batch.size() > 1 && injector_.reorder_batch(0, now)) {
    injector_.count(FaultKind::kReorder);
    // Deterministic Fisher-Yates keyed on (batch index, position). Safe for
    // pipeline output: the store keeps at most one freshest sample per node,
    // and within one drain a node contributes distinct steps at most once
    // apart from duplicates — which the store dedups regardless of order.
    for (std::size_t i = batch.size() - 1; i > 0; --i) {
      const std::size_t j = injector_.pick(i, now, kSaltShuffle, i + 1);
      std::swap(batch[i], batch[j]);
    }
  }
  return batch;
}

void FaultyLink::hold(const transport::MeasurementMessage& message,
                      std::size_t release_at) {
  if (num_held_ == held_.size()) held_.emplace_back();
  Held& entry = held_[num_held_++];
  entry.message = message;  // reuses the recycled entry's value storage
  entry.release_at = release_at;
}

void FaultyLink::corrupt_and_reject(
    const transport::MeasurementMessage& message) {
  std::vector<std::uint8_t> frame = net::wire::encode(message);
  RESMON_REQUIRE(frame.size() > net::wire::kHeaderSize,
                 "measurement frame must carry a payload");
  // Flip one payload byte (never the header) so the header still parses and
  // the receiver reaches — and fails — the CRC check, the exact path a
  // corrupted TCP stream takes in the controller.
  const std::size_t payload_len = frame.size() - net::wire::kHeaderSize;
  const std::size_t offset =
      net::wire::kHeaderSize +
      injector_.pick(message.node, message.step, kSaltCorruptByte,
                     payload_len);
  frame[offset] ^= 0xFF;
  net::wire::FrameDecoder decoder;
  decoder.feed(frame);
  RESMON_REQUIRE(decoder.error() == net::wire::WireError::kCrcMismatch,
                 "corrupted payload must fail the CRC check");
  ++crc_rejects_;
  if (m_crc_rejects_ != nullptr) m_crc_rejects_->inc();
}

}  // namespace resmon::faultnet
