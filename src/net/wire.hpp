// Binary wire protocol: frame encoders and the incremental decoder.
//
// Agents and the controller exchange length-prefixed, CRC-protected frames
// (layout in transport/wire_format.hpp). Encoding is explicit little-endian, so
// the protocol is byte-identical across hosts; doubles travel as their
// IEEE-754 bit patterns, making encode -> decode an exact identity
// (including NaN payloads and signed zeros).
//
// FrameDecoder is incremental: feed it whatever bytes arrived on a stream
// and pop complete frames. Corrupt, truncated or oversized input surfaces
// as a typed WireError — never an exception, crash or unbounded
// allocation — because remote peers must not be able to take the
// controller down.
//
// Both directions have a storage-reusing form for per-slot hot paths:
// encode_into() writes a frame into a caller's buffer and
// FrameDecoder::next_into() decodes into a caller's Frame, so a loop that
// keeps both across calls allocates nothing once warm (net::LoopbackLink).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "transport/wire_format.hpp"
#include "transport/channel.hpp"

namespace resmon::net::wire {

/// First frame an agent sends after connecting.
struct HelloFrame {
  std::uint32_t node = 0;
  std::uint32_t num_resources = 0;
};

/// Controller's reply to a hello (agent or shard; for a shard hello `node`
/// echoes the shard id).
struct HelloAckFrame {
  std::uint32_t node = 0;
  bool accepted = false;
  /// 0 = ok; nonzero = a HelloReject rejection reason.
  std::uint8_t reason = 0;
  /// Wire protocol version the acking peer speaks, so a rejected hello can
  /// be logged naming both sides. 0 = the ack came from a build predating
  /// this field (it was a reserved-zero byte).
  std::uint8_t speaker_version = kProtocolVersion;
};

/// Why a hello (or shard hello) was rejected, carried in
/// HelloAckFrame::reason. Shared protocol vocabulary: the controller sets
/// these, agents and aggregators render them via hello_reject_name().
enum class HelloReject : std::uint8_t {
  kNone = 0,
  kNodeOutOfRange = 1,
  kDimensionMismatch = 2,
  /// Second hello on a stream that already completed its handshake. A
  /// hello for a node connected on a *different* stream is not rejected:
  /// the newer connection wins and the old one is dropped as stale.
  kDuplicateNode = 3,
  kShardOutOfRange = 4,   ///< shard id >= the root's configured shard count
  kBadNodeRange = 5,      ///< shard's claimed node range is empty/overflows
  kVersionMismatch = 6,   ///< shard hello's protocol field != ours
  kShardsNotEnabled = 7,  ///< shard hello sent to a single-tier controller
};

/// Human-readable name of a HelloReject code (stable, for operator logs).
/// Unknown codes render as "unknown reason".
const char* hello_reject_name(std::uint8_t reason);

/// One line an operator can act on: the named reason, plus both protocol
/// versions when the rejection is a version mismatch (`speaker_version` is
/// the rejecting peer's version from the ack, 0 if unreported).
std::string describe_hello_reject(std::uint8_t reason,
                                  std::uint8_t speaker_version);

/// Liveness + slot progress: "node has processed slot `step` (and did not
/// transmit a measurement for it)".
struct HeartbeatFrame {
  std::uint32_t node = 0;
  std::uint64_t step = 0;
};

/// First frame an aggregator sends its root: which shard it is and the
/// contiguous node range [first_node, first_node + num_nodes) it fronts.
struct ShardHelloFrame {
  std::uint32_t shard = 0;
  std::uint32_t first_node = 0;
  std::uint32_t num_nodes = 0;
  std::uint32_t num_resources = 0;
  /// The aggregator's kProtocolVersion, checked explicitly by the root so
  /// a skew rejects with kVersionMismatch naming both versions.
  std::uint32_t protocol = kProtocolVersion;
};

/// One compacted slot of a shard: every measurement the shard's agents
/// transmitted for `step` (heartbeats are compacted away — the summary's
/// existence is the progress signal), plus how many owned nodes were
/// skipped as non-LIVE (`degraded`) so the root's degradation accounting
/// matches a single-tier run exactly.
struct SlotSummaryFrame {
  std::uint32_t shard = 0;
  std::uint64_t step = 0;
  std::uint32_t degraded = 0;
  std::uint32_t num_resources = 0;
  /// Measurements in node order; every entry's step == `step` and values
  /// size == num_resources (enforced by the decoder).
  std::vector<transport::MeasurementMessage> measurements;
};

/// Periodic shard staleness census, so the root can export per-shard
/// LIVE/STALE/DEAD gauges without owning the per-node machine.
struct ShardStatusFrame {
  std::uint32_t shard = 0;
  std::uint32_t live = 0;
  std::uint32_t stale = 0;
  std::uint32_t dead = 0;
};

/// Any decoded frame. Measurements reuse the transport-layer struct so the
/// controller can apply them to a CentralStore directly.
using Frame =
    std::variant<HelloFrame, HelloAckFrame, transport::MeasurementMessage,
                 HeartbeatFrame, ShardHelloFrame, SlotSummaryFrame,
                 ShardStatusFrame>;

/// Why a byte stream was rejected. kNone means the stream is healthy.
enum class WireError : std::uint8_t {
  kNone = 0,
  kBadMagic,           ///< header does not start with "RMON"
  kUnsupportedVersion, ///< version newer (or older) than this build speaks
  kUnknownFrameType,   ///< type byte not a FrameType of this version
  kOversizedPayload,   ///< payload_len exceeds the decoder's limit
  kCrcMismatch,        ///< payload failed its CRC-32 check
  kMalformedPayload,   ///< payload_len inconsistent with the frame type
  kTruncated,          ///< stream ended mid-frame (reported by finish())
};

/// Human-readable name of a WireError (stable, for logs and tests).
const char* wire_error_name(WireError error);

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `bytes`,
/// computed eight bytes per step (slicing-by-8).
std::uint32_t crc32(std::span<const std::uint8_t> bytes);

/// Encode one frame. The returned buffer is a complete frame: header
/// (including CRC over the payload) followed by the payload.
std::vector<std::uint8_t> encode(const transport::MeasurementMessage& m);
/// Same frame as encode(m), written over `out` (resized to the frame; its
/// capacity is reused).
void encode_into(std::vector<std::uint8_t>& out,
                 const transport::MeasurementMessage& m);
std::vector<std::uint8_t> encode(const HelloFrame& f);
std::vector<std::uint8_t> encode(const HelloAckFrame& f);
std::vector<std::uint8_t> encode(const HeartbeatFrame& f);
std::vector<std::uint8_t> encode(const ShardHelloFrame& f);
std::vector<std::uint8_t> encode(const SlotSummaryFrame& f);
std::vector<std::uint8_t> encode(const ShardStatusFrame& f);

/// Incremental frame decoder for one byte stream (one TCP connection).
///
///   FrameDecoder dec;
///   dec.feed(bytes_from_socket);
///   while (auto frame = dec.next()) handle(*frame);
///   if (dec.error() != WireError::kNone) drop_connection();
///
/// feed() checks every complete frame it can see (header, CRC, payload
/// size for the frame type), so a stream error surfaces there; the checked
/// frames stay in the byte buffer and next()/next_into() decode them one at
/// a time from a read offset. feed() drops the bytes already read once per
/// call, before it appends.
///
/// Once an error is set the decoder is poisoned: further feed() calls
/// return false and no frame past the error is ever yielded. A stream that
/// ends cleanly between frames passes finish(); ending mid-frame is
/// kTruncated.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_payload = kMaxPayloadSize);

  /// Append stream bytes and check as many complete frames as they
  /// contain. Returns false iff the decoder is (now) in an error state.
  /// A header announcing an oversized payload is rejected here, before
  /// any payload is buffered.
  bool feed(std::span<const std::uint8_t> bytes);

  /// Decode the next checked frame into `out` and return true, or return
  /// false if there is none. When `out` already holds the frame's
  /// alternative, its storage (measurement values, summary entries) is
  /// reused.
  bool next_into(Frame& out);

  /// Pop the next decoded frame, if any (next_into() a fresh Frame).
  std::optional<Frame> next();

  /// Signal end-of-stream. Returns true iff the stream ended exactly on a
  /// frame boundary with no decode error; a partial frame in the buffer
  /// sets kTruncated.
  bool finish();

  WireError error() const { return error_; }

  /// True when no partial frame is buffered.
  bool at_frame_boundary() const { return checked_ == buffer_.size(); }

  /// Bytes currently buffered while waiting for the rest of a frame.
  std::size_t buffered_bytes() const { return buffer_.size() - checked_; }

  std::uint64_t frames_decoded() const { return frames_decoded_; }
  std::uint64_t bytes_consumed() const { return bytes_consumed_; }

 private:
  /// Check the frame starting at checked_. Returns true and moves checked_
  /// past it if it is complete and valid; false if more bytes are needed
  /// or error_ was set.
  bool check_one();

  std::size_t max_payload_;
  /// [read_, checked_) holds checked frames not yet returned by
  /// next_into(); [checked_, size) is the start of an incomplete frame.
  std::vector<std::uint8_t> buffer_;
  std::size_t read_ = 0;
  std::size_t checked_ = 0;
  WireError error_ = WireError::kNone;
  std::uint64_t frames_decoded_ = 0;
  std::uint64_t bytes_consumed_ = 0;
};

}  // namespace resmon::net::wire
