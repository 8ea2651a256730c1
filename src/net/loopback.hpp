// LoopbackLink: the in-process uplink routed through the real wire codec.
//
// Every message is encoded to wire bytes, fed through an incremental
// FrameDecoder and only the decoded copy is delivered — so deterministic
// tests and benches exercise the exact encode/decode path the TCP runtime
// uses, and bandwidth accounting counts real frame bytes, while keeping the
// Channel's seeded drop/delay failure injection. Because encode -> decode
// is an identity, a LoopbackLink behaves bit-identically to a bare Channel
// with the same options. The frame buffer, the decoder's byte buffer and
// the decoded message are reused across sends, so a warm link allocates
// nothing per message.
#pragma once

#include "net/wire.hpp"
#include "transport/channel.hpp"
#include "transport/link.hpp"

namespace resmon::net {

class LoopbackLink final : public transport::Link {
 public:
  LoopbackLink() = default;
  explicit LoopbackLink(const transport::ChannelOptions& options)
      : channel_(options) {}

  /// Encode, decode, then enqueue the decoded message on the channel.
  /// Throws InvalidState if the codec ever fails to round-trip (that is a
  /// bug, not an input condition: this link sees only locally built
  /// messages).
  void send(const transport::MeasurementMessage& message) override;

  std::span<transport::MeasurementMessage> drain_into(
      std::vector<transport::MeasurementMessage>& out) override {
    return channel_.drain_into(out);
  }

  std::size_t pending() const override { return channel_.pending(); }
  std::uint64_t messages_sent() const override {
    return channel_.messages_sent();
  }
  std::uint64_t bytes_sent() const override { return channel_.bytes_sent(); }
  std::uint64_t messages_dropped() const override {
    return channel_.messages_dropped();
  }

  /// The underlying simulated channel (for failure-injection inspection).
  const transport::Channel& channel() const { return channel_; }

 private:
  transport::Channel channel_;
  std::vector<std::uint8_t> frame_bytes_;  ///< the encoded frame
  wire::FrameDecoder decoder_;
  wire::Frame decoded_;  ///< the decoded frame, handed to the channel
};

}  // namespace resmon::net
