#include "net/wire.hpp"

#include <array>
#include <bit>

namespace resmon::net::wire {

namespace {

// -- little-endian primitives -----------------------------------------------

/// Writes little-endian fields at a cursor into a buffer already sized for
/// them.
class Writer {
 public:
  explicit Writer(std::uint8_t* p) : p_(p) {}

  void u8(std::uint8_t v) { *p_++ = v; }
  void u16(std::uint16_t v) { put(v, 2); }
  void u32(std::uint32_t v) { put(v, 4); }
  void u64(std::uint64_t v) { put(v, 8); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

 private:
  void put(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      *p_++ = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

  std::uint8_t* p_;
};

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

double get_f64(const std::uint8_t* p) {
  return std::bit_cast<double>(get_u64(p));
}

// -- CRC-32 -----------------------------------------------------------------

/// Slicing-by-8 tables: kCrcTables[0] is the classic byte-at-a-time table;
/// kCrcTables[k][b] is the CRC register after byte b followed by k zero
/// bytes, so eight table lookups advance the CRC by eight bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

// -- frame assembly ---------------------------------------------------------

/// Sizes `out` to one frame of type `type` with a `payload_len`-byte
/// payload, writes the header except its CRC, and returns a writer at the
/// payload. seal_frame() stamps the CRC once the payload is written.
Writer begin_frame(std::vector<std::uint8_t>& out, FrameType type,
                   std::size_t payload_len) {
  out.resize(kHeaderSize + payload_len);
  Writer header(out.data());
  header.u32(kMagic);
  header.u8(kProtocolVersion);
  header.u8(static_cast<std::uint8_t>(type));
  header.u16(0);  // reserved
  header.u32(static_cast<std::uint32_t>(payload_len));
  return Writer(out.data() + kHeaderSize);
}

void seal_frame(std::vector<std::uint8_t>& out) {
  Writer(out.data() + 12)
      .u32(crc32({out.data() + kHeaderSize, out.size() - kHeaderSize}));
}

/// The alternative T of `frame`, keeping its storage if it already holds
/// one.
template <typename T>
T& reuse(Frame& frame) {
  if (T* held = std::get_if<T>(&frame)) return *held;
  return frame.emplace<T>();
}

/// Payload-size rule of each frame type, checked before a frame is
/// accepted (the header and CRC are already valid).
bool payload_well_formed(FrameType type, const std::uint8_t* p,
                         std::size_t payload_len) {
  switch (type) {
    case FrameType::kHello: return payload_len == kHelloPayloadSize;
    case FrameType::kHelloAck: return payload_len == kHelloAckPayloadSize;
    case FrameType::kHeartbeat: return payload_len == kHeartbeatPayloadSize;
    case FrameType::kShardHello:
      return payload_len == kShardHelloPayloadSize;
    case FrameType::kShardStatus:
      return payload_len == kShardStatusPayloadSize;
    case FrameType::kMeasurement:
      return payload_len >= 16 &&
             payload_len == measurement_payload_size(get_u32(p + 12));
    case FrameType::kSlotSummary: {
      if (payload_len < kSlotSummaryHeaderSize) return false;
      const std::size_t dim = get_u32(p + 16);
      const std::size_t count = get_u32(p + 20);
      // Bound both fields by what could possibly fit in the (already
      // length-capped) payload before multiplying, so a hostile header
      // cannot overflow the size arithmetic. An empty summary (a slot in
      // which every shard agent stayed silent) carries dim but no entries,
      // so dim is only bounded when entries exist to hold it.
      return !((count > 0 && dim > payload_len / 8) ||
               count > payload_len / 4) &&
             payload_len == slot_summary_payload_size(count, dim);
    }
  }
  return false;
}

/// Decodes a checked payload of type `type` into `out`.
void decode_payload(FrameType type, const std::uint8_t* p, Frame& out) {
  switch (type) {
    case FrameType::kHello:
      out = HelloFrame{.node = get_u32(p), .num_resources = get_u32(p + 4)};
      return;
    case FrameType::kHelloAck:
      out = HelloAckFrame{.node = get_u32(p),
                          .accepted = p[4] != 0,
                          .reason = p[5],
                          .speaker_version = p[6]};
      return;
    case FrameType::kMeasurement: {
      transport::MeasurementMessage& m =
          reuse<transport::MeasurementMessage>(out);
      m.node = get_u32(p);
      m.step = static_cast<std::size_t>(get_u64(p + 4));
      m.values.resize(get_u32(p + 12));
      for (std::size_t i = 0; i < m.values.size(); ++i) {
        m.values[i] = get_f64(p + 16 + 8 * i);
      }
      return;
    }
    case FrameType::kHeartbeat:
      out = HeartbeatFrame{.node = get_u32(p), .step = get_u64(p + 4)};
      return;
    case FrameType::kShardHello:
      out = ShardHelloFrame{.shard = get_u32(p),
                            .first_node = get_u32(p + 4),
                            .num_nodes = get_u32(p + 8),
                            .num_resources = get_u32(p + 12),
                            .protocol = get_u32(p + 16)};
      return;
    case FrameType::kSlotSummary: {
      SlotSummaryFrame& s = reuse<SlotSummaryFrame>(out);
      s.shard = get_u32(p);
      s.step = get_u64(p + 4);
      s.degraded = get_u32(p + 12);
      s.num_resources = get_u32(p + 16);
      s.measurements.resize(get_u32(p + 20));
      const std::uint8_t* entry = p + kSlotSummaryHeaderSize;
      for (transport::MeasurementMessage& m : s.measurements) {
        m.node = get_u32(entry);
        m.step = static_cast<std::size_t>(s.step);
        m.values.resize(s.num_resources);
        for (std::size_t r = 0; r < m.values.size(); ++r) {
          m.values[r] = get_f64(entry + 4 + 8 * r);
        }
        entry += 4 + 8 * m.values.size();
      }
      return;
    }
    case FrameType::kShardStatus:
      out = ShardStatusFrame{.shard = get_u32(p),
                             .live = get_u32(p + 4),
                             .stale = get_u32(p + 8),
                             .dead = get_u32(p + 12)};
      return;
  }
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  const CrcTables& t = kCrcTables;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint32_t c = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ get_u32(p);
    const std::uint32_t hi = get_u32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

const char* hello_reject_name(std::uint8_t reason) {
  switch (static_cast<HelloReject>(reason)) {
    case HelloReject::kNone: return "accepted";
    case HelloReject::kNodeOutOfRange: return "node id out of range";
    case HelloReject::kDimensionMismatch: return "dimension mismatch";
    case HelloReject::kDuplicateNode: return "duplicate hello on one stream";
    case HelloReject::kShardOutOfRange: return "shard id out of range";
    case HelloReject::kBadNodeRange: return "invalid shard node range";
    case HelloReject::kVersionMismatch: return "wire protocol version mismatch";
    case HelloReject::kShardsNotEnabled:
      return "shard hello to a single-tier controller";
  }
  return "unknown reason";
}

std::string describe_hello_reject(std::uint8_t reason,
                                  std::uint8_t speaker_version) {
  // Built with append(): GCC 12 at -O3 raises a -Wrestrict false positive
  // inside the equivalent chain of std::string operator+.
  std::string out = "reason ";
  out.append(std::to_string(static_cast<int>(reason)));
  out.append(": ");
  out.append(hello_reject_name(reason));
  if (static_cast<HelloReject>(reason) == HelloReject::kVersionMismatch) {
    out.append(" (we speak wire protocol v");
    out.append(std::to_string(static_cast<int>(kProtocolVersion)));
    out.append(", peer speaks ");
    if (speaker_version == 0) {
      out.append("an unreported version");
    } else {
      out.append("v");
      out.append(std::to_string(static_cast<int>(speaker_version)));
    }
    out.append(")");
  }
  return out;
}

const char* wire_error_name(WireError error) {
  switch (error) {
    case WireError::kNone: return "none";
    case WireError::kBadMagic: return "bad magic";
    case WireError::kUnsupportedVersion: return "unsupported version";
    case WireError::kUnknownFrameType: return "unknown frame type";
    case WireError::kOversizedPayload: return "oversized payload";
    case WireError::kCrcMismatch: return "crc mismatch";
    case WireError::kMalformedPayload: return "malformed payload";
    case WireError::kTruncated: return "truncated frame";
  }
  return "invalid error code";
}

void encode_into(std::vector<std::uint8_t>& out,
                 const transport::MeasurementMessage& m) {
  Writer w = begin_frame(out, FrameType::kMeasurement,
                         measurement_payload_size(m.values.size()));
  w.u32(static_cast<std::uint32_t>(m.node));
  w.u64(static_cast<std::uint64_t>(m.step));
  w.u32(static_cast<std::uint32_t>(m.values.size()));
  for (double v : m.values) w.f64(v);
  seal_frame(out);
}

std::vector<std::uint8_t> encode(const transport::MeasurementMessage& m) {
  std::vector<std::uint8_t> out;
  encode_into(out, m);
  return out;
}

std::vector<std::uint8_t> encode(const HelloFrame& f) {
  std::vector<std::uint8_t> out;
  Writer w = begin_frame(out, FrameType::kHello, kHelloPayloadSize);
  w.u32(f.node);
  w.u32(f.num_resources);
  seal_frame(out);
  return out;
}

std::vector<std::uint8_t> encode(const HelloAckFrame& f) {
  std::vector<std::uint8_t> out;
  Writer w = begin_frame(out, FrameType::kHelloAck, kHelloAckPayloadSize);
  w.u32(f.node);
  w.u8(f.accepted ? 1 : 0);
  w.u8(f.reason);
  w.u8(f.speaker_version);
  w.u8(0);  // reserved
  seal_frame(out);
  return out;
}

std::vector<std::uint8_t> encode(const HeartbeatFrame& f) {
  std::vector<std::uint8_t> out;
  Writer w = begin_frame(out, FrameType::kHeartbeat, kHeartbeatPayloadSize);
  w.u32(f.node);
  w.u64(f.step);
  seal_frame(out);
  return out;
}

std::vector<std::uint8_t> encode(const ShardHelloFrame& f) {
  std::vector<std::uint8_t> out;
  Writer w =
      begin_frame(out, FrameType::kShardHello, kShardHelloPayloadSize);
  w.u32(f.shard);
  w.u32(f.first_node);
  w.u32(f.num_nodes);
  w.u32(f.num_resources);
  w.u32(f.protocol);
  seal_frame(out);
  return out;
}

std::vector<std::uint8_t> encode(const SlotSummaryFrame& f) {
  // Sized from the entries themselves: an entry whose value count
  // disagrees with num_resources still encodes, into a frame every decoder
  // rejects as malformed.
  std::size_t payload_len = kSlotSummaryHeaderSize;
  for (const transport::MeasurementMessage& m : f.measurements) {
    payload_len += 4 + 8 * m.values.size();
  }
  std::vector<std::uint8_t> out;
  Writer w = begin_frame(out, FrameType::kSlotSummary, payload_len);
  w.u32(f.shard);
  w.u64(f.step);
  w.u32(f.degraded);
  w.u32(f.num_resources);
  w.u32(static_cast<std::uint32_t>(f.measurements.size()));
  for (const transport::MeasurementMessage& m : f.measurements) {
    w.u32(static_cast<std::uint32_t>(m.node));
    for (double v : m.values) w.f64(v);
  }
  seal_frame(out);
  return out;
}

std::vector<std::uint8_t> encode(const ShardStatusFrame& f) {
  std::vector<std::uint8_t> out;
  Writer w =
      begin_frame(out, FrameType::kShardStatus, kShardStatusPayloadSize);
  w.u32(f.shard);
  w.u32(f.live);
  w.u32(f.stale);
  w.u32(f.dead);
  seal_frame(out);
  return out;
}

FrameDecoder::FrameDecoder(std::size_t max_payload)
    : max_payload_(max_payload) {}

bool FrameDecoder::feed(std::span<const std::uint8_t> bytes) {
  if (error_ != WireError::kNone) return false;
  if (read_ > 0) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(read_));
    checked_ -= read_;
    read_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  while (check_one()) {
  }
  return error_ == WireError::kNone;
}

bool FrameDecoder::next_into(Frame& out) {
  if (read_ == checked_) return false;
  const std::uint8_t* h = buffer_.data() + read_;
  decode_payload(static_cast<FrameType>(h[5]), h + kHeaderSize, out);
  read_ += kHeaderSize + get_u32(h + 8);
  return true;
}

std::optional<Frame> FrameDecoder::next() {
  Frame f;
  if (!next_into(f)) return std::nullopt;
  return f;
}

bool FrameDecoder::finish() {
  if (error_ != WireError::kNone) return false;
  if (!at_frame_boundary()) {
    error_ = WireError::kTruncated;
    return false;
  }
  return true;
}

bool FrameDecoder::check_one() {
  if (error_ != WireError::kNone) return false;
  if (buffer_.size() - checked_ < kHeaderSize) return false;
  const std::uint8_t* h = buffer_.data() + checked_;

  // Validate the header before waiting for (or buffering) any payload, so
  // a hostile length field cannot drive allocation.
  if (get_u32(h) != kMagic) {
    error_ = WireError::kBadMagic;
    return false;
  }
  if (h[4] != kProtocolVersion) {
    error_ = WireError::kUnsupportedVersion;
    return false;
  }
  const std::uint8_t type = h[5];
  if (type < static_cast<std::uint8_t>(FrameType::kHello) ||
      type > static_cast<std::uint8_t>(FrameType::kShardStatus)) {
    error_ = WireError::kUnknownFrameType;
    return false;
  }
  const std::size_t payload_len = get_u32(h + 8);
  if (payload_len > max_payload_) {
    error_ = WireError::kOversizedPayload;
    return false;
  }
  const std::size_t total = kHeaderSize + payload_len;
  if (buffer_.size() - checked_ < total) return false;  // wait for more

  const std::uint8_t* p = h + kHeaderSize;
  if (crc32({p, payload_len}) != get_u32(h + 12)) {
    error_ = WireError::kCrcMismatch;
    return false;
  }
  if (!payload_well_formed(static_cast<FrameType>(type), p, payload_len)) {
    error_ = WireError::kMalformedPayload;
    return false;
  }
  checked_ += total;
  ++frames_decoded_;
  bytes_consumed_ += total;
  return true;
}

}  // namespace resmon::net::wire
