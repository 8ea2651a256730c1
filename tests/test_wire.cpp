// Wire protocol tests: encode/decode identity, incremental decoding, and
// the robustness sweep from the protocol's threat model — truncation at
// every byte boundary, corrupted CRCs, wrong magic, future versions, and
// headers announcing absurd payload sizes (which must not allocate).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "net/wire.hpp"

namespace resmon::net::wire {
namespace {

transport::MeasurementMessage sample_message(std::size_t node,
                                             std::size_t step,
                                             std::vector<double> values) {
  transport::MeasurementMessage m;
  m.node = node;
  m.step = step;
  m.values = std::move(values);
  return m;
}

/// Decode exactly one frame from a complete buffer, expecting success.
Frame decode_one(const std::vector<std::uint8_t>& bytes) {
  FrameDecoder dec;
  EXPECT_TRUE(dec.feed(bytes));
  std::optional<Frame> frame = dec.next();
  EXPECT_TRUE(frame.has_value());
  EXPECT_TRUE(dec.finish());
  return std::move(*frame);
}

TEST(Wire, MeasurementRoundTripIsExactIdentity) {
  const transport::MeasurementMessage m =
      sample_message(7, 123456789012345ull, {0.25, -1e308, 3.5e-320});
  const Frame frame = decode_one(encode(m));
  const auto& got = std::get<transport::MeasurementMessage>(frame);
  EXPECT_EQ(got.node, m.node);
  EXPECT_EQ(got.step, m.step);
  ASSERT_EQ(got.values.size(), m.values.size());
  for (std::size_t i = 0; i < m.values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.values[i]),
              std::bit_cast<std::uint64_t>(m.values[i]));
  }
}

TEST(Wire, RoundTripPreservesNonFiniteAndSignedZeroBitPatterns) {
  const transport::MeasurementMessage m = sample_message(
      0, 0,
      {std::numeric_limits<double>::quiet_NaN(),
       std::numeric_limits<double>::infinity(),
       -std::numeric_limits<double>::infinity(), -0.0,
       std::numeric_limits<double>::denorm_min()});
  const Frame frame = decode_one(encode(m));
  const auto& got = std::get<transport::MeasurementMessage>(frame);
  ASSERT_EQ(got.values.size(), m.values.size());
  for (std::size_t i = 0; i < m.values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.values[i]),
              std::bit_cast<std::uint64_t>(m.values[i]))
        << "value " << i;
  }
}

TEST(Wire, RandomizedMessagesRoundTripAtEveryDimension) {
  std::mt19937_64 rng(20260806);
  std::uniform_real_distribution<double> value(-1e6, 1e6);
  for (std::size_t d = 0; d <= 32; ++d) {
    transport::MeasurementMessage m;
    m.node = static_cast<std::size_t>(rng() % 10000);
    m.step = static_cast<std::size_t>(rng());
    for (std::size_t i = 0; i < d; ++i) m.values.push_back(value(rng));

    const std::vector<std::uint8_t> bytes = encode(m);
    EXPECT_EQ(bytes.size(), m.wire_size()) << "d=" << d;
    const Frame frame = decode_one(bytes);
    const auto& got = std::get<transport::MeasurementMessage>(frame);
    EXPECT_EQ(got.node, m.node);
    EXPECT_EQ(got.step, m.step);
    EXPECT_EQ(got.values, m.values) << "d=" << d;
  }
}

TEST(Wire, ControlFramesRoundTrip) {
  const auto hello = std::get<HelloFrame>(
      decode_one(encode(HelloFrame{.node = 42, .num_resources = 3})));
  EXPECT_EQ(hello.node, 42u);
  EXPECT_EQ(hello.num_resources, 3u);

  const auto ack = std::get<HelloAckFrame>(decode_one(
      encode(HelloAckFrame{.node = 42, .accepted = false, .reason = 3})));
  EXPECT_EQ(ack.node, 42u);
  EXPECT_FALSE(ack.accepted);
  EXPECT_EQ(ack.reason, 3u);

  const auto hb = std::get<HeartbeatFrame>(decode_one(
      encode(HeartbeatFrame{.node = 6, .step = (1ull << 40) + 9})));
  EXPECT_EQ(hb.node, 6u);
  EXPECT_EQ(hb.step, (1ull << 40) + 9);
}

TEST(Wire, DecoderHandlesByteAtATimeMultiFrameStreams) {
  std::vector<std::uint8_t> stream;
  const transport::MeasurementMessage m0 = sample_message(1, 10, {0.5});
  const transport::MeasurementMessage m1 = sample_message(2, 11, {1.5, 2.5});
  for (const auto& bytes :
       {encode(HelloFrame{.node = 1, .num_resources = 1}), encode(m0),
        encode(HeartbeatFrame{.node = 1, .step = 12}), encode(m1)}) {
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }

  FrameDecoder dec;
  std::vector<Frame> frames;
  for (const std::uint8_t byte : stream) {
    ASSERT_TRUE(dec.feed({&byte, 1}));
    while (std::optional<Frame> f = dec.next()) frames.push_back(*f);
  }
  EXPECT_TRUE(dec.finish());
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_TRUE(std::holds_alternative<HelloFrame>(frames[0]));
  EXPECT_EQ(std::get<transport::MeasurementMessage>(frames[1]).step, 10u);
  EXPECT_EQ(std::get<HeartbeatFrame>(frames[2]).step, 12u);
  EXPECT_EQ(std::get<transport::MeasurementMessage>(frames[3]).values,
            m1.values);
  EXPECT_EQ(dec.frames_decoded(), 4u);
  EXPECT_EQ(dec.bytes_consumed(), stream.size());
}

TEST(Wire, TruncationAtEveryByteBoundaryIsDetected) {
  const std::vector<std::uint8_t> bytes =
      encode(sample_message(3, 17, {1.0, 2.0, 3.0}));
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    FrameDecoder dec;
    ASSERT_TRUE(dec.feed({bytes.data(), cut})) << "cut=" << cut;
    EXPECT_FALSE(dec.next().has_value()) << "cut=" << cut;
    if (cut == 0) {
      EXPECT_TRUE(dec.finish());  // clean end between frames
    } else {
      EXPECT_FALSE(dec.finish()) << "cut=" << cut;
      EXPECT_EQ(dec.error(), WireError::kTruncated) << "cut=" << cut;
    }
  }
}

TEST(Wire, FlippedCrcFieldRejectsTheFrame) {
  std::vector<std::uint8_t> bytes = encode(sample_message(1, 2, {4.0}));
  bytes[12] ^= 0x01;  // CRC lives at header bytes [12, 16)
  FrameDecoder dec;
  EXPECT_FALSE(dec.feed(bytes));
  EXPECT_EQ(dec.error(), WireError::kCrcMismatch);
  EXPECT_STREQ(wire_error_name(dec.error()), "crc mismatch");
}

TEST(Wire, EveryCorruptedPayloadByteIsCaughtByTheCrc) {
  const std::vector<std::uint8_t> clean = encode(sample_message(1, 2, {4.0}));
  for (std::size_t i = kHeaderSize; i < clean.size(); ++i) {
    std::vector<std::uint8_t> bytes = clean;
    bytes[i] ^= 0x40;
    FrameDecoder dec;
    EXPECT_FALSE(dec.feed(bytes)) << "byte " << i;
    EXPECT_EQ(dec.error(), WireError::kCrcMismatch) << "byte " << i;
  }
}

TEST(Wire, WrongMagicIsRejected) {
  std::vector<std::uint8_t> bytes = encode(HeartbeatFrame{.node = 0});
  bytes[0] ^= 0xFF;
  FrameDecoder dec;
  EXPECT_FALSE(dec.feed(bytes));
  EXPECT_EQ(dec.error(), WireError::kBadMagic);
}

TEST(Wire, FutureProtocolVersionIsRejected) {
  std::vector<std::uint8_t> bytes = encode(HeartbeatFrame{.node = 0});
  bytes[4] = kProtocolVersion + 1;
  FrameDecoder dec;
  EXPECT_FALSE(dec.feed(bytes));
  EXPECT_EQ(dec.error(), WireError::kUnsupportedVersion);
}

TEST(Wire, UnknownFrameTypeIsRejected) {
  std::vector<std::uint8_t> bytes = encode(HeartbeatFrame{.node = 0});
  bytes[5] = 0x7F;
  FrameDecoder dec;
  EXPECT_FALSE(dec.feed(bytes));
  EXPECT_EQ(dec.error(), WireError::kUnknownFrameType);
}

TEST(Wire, PayloadBombIsRejectedFromTheHeaderAlone) {
  // A hostile header announcing a 4 GiB payload must be rejected as soon as
  // the 16 header bytes are in — before any payload is buffered, so a
  // remote peer cannot drive controller memory with a single small write.
  std::vector<std::uint8_t> bytes = encode(HeartbeatFrame{.node = 0});
  bytes.resize(kHeaderSize);
  bytes[8] = bytes[9] = bytes[10] = bytes[11] = 0xFF;  // payload_len field
  FrameDecoder dec;
  EXPECT_FALSE(dec.feed(bytes));
  EXPECT_EQ(dec.error(), WireError::kOversizedPayload);
  EXPECT_LE(dec.buffered_bytes(), kHeaderSize);
}

TEST(Wire, PayloadJustOverTheDecoderLimitIsRejected) {
  const transport::MeasurementMessage m = sample_message(0, 0, {1.0, 2.0});
  const std::vector<std::uint8_t> bytes = encode(m);
  FrameDecoder tight(measurement_payload_size(m.values.size()) - 1);
  EXPECT_FALSE(tight.feed(bytes));
  EXPECT_EQ(tight.error(), WireError::kOversizedPayload);

  FrameDecoder exact(measurement_payload_size(m.values.size()));
  EXPECT_TRUE(exact.feed(bytes));
  EXPECT_TRUE(exact.next().has_value());
}

TEST(Wire, InconsistentMeasurementCountIsMalformed) {
  // Patch the in-payload count field and fix up the CRC so only the
  // payload-length consistency check can catch it.
  std::vector<std::uint8_t> bytes = encode(sample_message(1, 2, {4.0, 5.0}));
  const std::size_t count_offset = kHeaderSize + 12;
  bytes[count_offset] += 1;  // claims 3 doubles; payload only holds 2
  const std::uint32_t crc =
      crc32({bytes.data() + kHeaderSize, bytes.size() - kHeaderSize});
  bytes[12] = static_cast<std::uint8_t>(crc);
  bytes[13] = static_cast<std::uint8_t>(crc >> 8);
  bytes[14] = static_cast<std::uint8_t>(crc >> 16);
  bytes[15] = static_cast<std::uint8_t>(crc >> 24);

  FrameDecoder dec;
  EXPECT_FALSE(dec.feed(bytes));
  EXPECT_EQ(dec.error(), WireError::kMalformedPayload);
}

TEST(Wire, PoisonedDecoderStaysPoisoned) {
  std::vector<std::uint8_t> bad = encode(HeartbeatFrame{.node = 0});
  bad[0] ^= 0xFF;
  FrameDecoder dec;
  EXPECT_FALSE(dec.feed(bad));

  const std::vector<std::uint8_t> good = encode(HeartbeatFrame{.node = 1});
  EXPECT_FALSE(dec.feed(good));
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_FALSE(dec.finish());
  EXPECT_EQ(dec.error(), WireError::kBadMagic);
}

// -- shard frames (two-tier topology) ---------------------------------------

TEST(Wire, ShardHelloRoundTrip) {
  const auto sh = std::get<ShardHelloFrame>(decode_one(
      encode(ShardHelloFrame{.shard = 3,
                             .first_node = 96,
                             .num_nodes = 32,
                             .num_resources = 2,
                             .protocol = kProtocolVersion})));
  EXPECT_EQ(sh.shard, 3u);
  EXPECT_EQ(sh.first_node, 96u);
  EXPECT_EQ(sh.num_nodes, 32u);
  EXPECT_EQ(sh.num_resources, 2u);
  EXPECT_EQ(sh.protocol, kProtocolVersion);
}

TEST(Wire, HelloAckCarriesSpeakerVersion) {
  const auto ack = std::get<HelloAckFrame>(decode_one(encode(
      HelloAckFrame{.node = 1, .accepted = false, .reason = 6,
                    .speaker_version = 9})));
  EXPECT_EQ(ack.reason, 6u);
  EXPECT_EQ(ack.speaker_version, 9u);
  // The default-constructed ack reports this build's protocol version.
  const auto dflt = std::get<HelloAckFrame>(
      decode_one(encode(HelloAckFrame{.node = 0, .accepted = true})));
  EXPECT_EQ(dflt.speaker_version, kProtocolVersion);
}

TEST(Wire, SlotSummaryRoundTripIsExactIdentity) {
  SlotSummaryFrame s;
  s.shard = 1;
  s.step = (1ull << 41) + 17;
  s.degraded = 2;
  s.num_resources = 3;
  s.measurements.push_back(sample_message(
      4, static_cast<std::size_t>(s.step),
      {0.25, std::numeric_limits<double>::quiet_NaN(), -0.0}));
  s.measurements.push_back(sample_message(
      5, static_cast<std::size_t>(s.step), {-1e308, 3.5e-320, 2.5}));

  const std::vector<std::uint8_t> bytes = encode(s);
  EXPECT_EQ(bytes.size(),
            frame_size(slot_summary_payload_size(2, s.num_resources)));
  const auto got = std::get<SlotSummaryFrame>(decode_one(bytes));
  EXPECT_EQ(got.shard, s.shard);
  EXPECT_EQ(got.step, s.step);
  EXPECT_EQ(got.degraded, s.degraded);
  EXPECT_EQ(got.num_resources, s.num_resources);
  ASSERT_EQ(got.measurements.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(got.measurements[i].node, s.measurements[i].node);
    // Each decoded entry inherits the summary's step.
    EXPECT_EQ(got.measurements[i].step, static_cast<std::size_t>(s.step));
    ASSERT_EQ(got.measurements[i].values.size(), 3u);
    for (std::size_t r = 0; r < 3; ++r) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.measurements[i].values[r]),
                std::bit_cast<std::uint64_t>(s.measurements[i].values[r]))
          << "entry " << i << " value " << r;
    }
  }
}

TEST(Wire, EmptySlotSummaryRoundTrips) {
  // Every shard agent stayed silent this slot: the summary still travels
  // (it IS the shard's progress signal) with zero entries.
  SlotSummaryFrame s;
  s.shard = 0;
  s.step = 7;
  s.num_resources = 4;
  const auto got = std::get<SlotSummaryFrame>(decode_one(encode(s)));
  EXPECT_EQ(got.step, 7u);
  EXPECT_EQ(got.degraded, 0u);
  EXPECT_TRUE(got.measurements.empty());
}

TEST(Wire, ShardStatusRoundTrip) {
  const auto st = std::get<ShardStatusFrame>(decode_one(encode(
      ShardStatusFrame{.shard = 2, .live = 30, .stale = 1, .dead = 1})));
  EXPECT_EQ(st.shard, 2u);
  EXPECT_EQ(st.live, 30u);
  EXPECT_EQ(st.stale, 1u);
  EXPECT_EQ(st.dead, 1u);
}

TEST(Wire, ShardFrameTruncationAtEveryByteBoundaryIsDetected) {
  SlotSummaryFrame s;
  s.shard = 1;
  s.step = 9;
  s.num_resources = 2;
  s.measurements.push_back(sample_message(0, 9, {1.0, 2.0}));
  for (const auto& bytes :
       {encode(ShardHelloFrame{.shard = 0, .num_nodes = 3,
                               .num_resources = 2}),
        encode(s), encode(ShardStatusFrame{.shard = 0, .live = 3})}) {
    for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
      FrameDecoder dec;
      ASSERT_TRUE(dec.feed({bytes.data(), cut})) << "cut=" << cut;
      EXPECT_FALSE(dec.next().has_value()) << "cut=" << cut;
      EXPECT_FALSE(dec.finish()) << "cut=" << cut;
      EXPECT_EQ(dec.error(), WireError::kTruncated) << "cut=" << cut;
    }
  }
}

TEST(Wire, EveryCorruptedShardFrameByteIsCaughtByTheCrc) {
  SlotSummaryFrame s;
  s.shard = 0;
  s.step = 3;
  s.num_resources = 1;
  s.measurements.push_back(sample_message(1, 3, {4.0}));
  const std::vector<std::uint8_t> clean = encode(s);
  for (std::size_t i = kHeaderSize; i < clean.size(); ++i) {
    std::vector<std::uint8_t> bytes = clean;
    bytes[i] ^= 0x40;
    FrameDecoder dec;
    EXPECT_FALSE(dec.feed(bytes)) << "byte " << i;
    EXPECT_EQ(dec.error(), WireError::kCrcMismatch) << "byte " << i;
  }
}

/// Patch a 32-bit little-endian field inside the payload and fix up the
/// header CRC, so only the structural validation can reject the frame.
std::vector<std::uint8_t> with_patched_field(std::vector<std::uint8_t> bytes,
                                             std::size_t payload_offset,
                                             std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    bytes[kHeaderSize + payload_offset + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(value >> (8 * i));
  }
  const std::uint32_t crc =
      crc32({bytes.data() + kHeaderSize, bytes.size() - kHeaderSize});
  for (int i = 0; i < 4; ++i) {
    bytes[12 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  }
  return bytes;
}

TEST(Wire, HostileSlotSummaryCountIsMalformed) {
  SlotSummaryFrame s;
  s.num_resources = 2;
  s.measurements.push_back(sample_message(0, 0, {1.0, 2.0}));
  // count claims 2^31 entries; the payload holds one. The size check must
  // reject this without multiplying into an overflow.
  const std::vector<std::uint8_t> bytes =
      with_patched_field(encode(s), 20, 1u << 31);
  FrameDecoder dec;
  EXPECT_FALSE(dec.feed(bytes));
  EXPECT_EQ(dec.error(), WireError::kMalformedPayload);
}

TEST(Wire, HostileSlotSummaryDimensionIsMalformed) {
  SlotSummaryFrame s;
  s.num_resources = 2;
  s.measurements.push_back(sample_message(0, 0, {1.0, 2.0}));
  const std::vector<std::uint8_t> bytes =
      with_patched_field(encode(s), 16, 0xFFFFFFFFu);
  FrameDecoder dec;
  EXPECT_FALSE(dec.feed(bytes));
  EXPECT_EQ(dec.error(), WireError::kMalformedPayload);
}

TEST(Wire, SlotSummaryCountDimensionMismatchIsMalformed) {
  // Internally consistent-looking fields whose product disagrees with the
  // actual payload length by one entry.
  SlotSummaryFrame s;
  s.num_resources = 2;
  s.measurements.push_back(sample_message(0, 0, {1.0, 2.0}));
  s.measurements.push_back(sample_message(1, 0, {3.0, 4.0}));
  const std::vector<std::uint8_t> bytes =
      with_patched_field(encode(s), 20, 3);  // claims 3 entries, holds 2
  FrameDecoder dec;
  EXPECT_FALSE(dec.feed(bytes));
  EXPECT_EQ(dec.error(), WireError::kMalformedPayload);
}

TEST(Wire, WrongSizeShardControlPayloadsAreMalformed) {
  // Shrink each fixed-size shard frame by one payload byte (fixing length
  // field + CRC) — the per-type size check must reject it.
  for (const auto& clean :
       {encode(ShardHelloFrame{.shard = 1, .num_nodes = 2,
                               .num_resources = 1}),
        encode(ShardStatusFrame{.shard = 1, .live = 2})}) {
    std::vector<std::uint8_t> bytes = clean;
    bytes.pop_back();
    const std::uint32_t len =
        static_cast<std::uint32_t>(bytes.size() - kHeaderSize);
    for (int i = 0; i < 4; ++i) {
      bytes[8 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(len >> (8 * i));
    }
    const std::uint32_t crc =
        crc32({bytes.data() + kHeaderSize, bytes.size() - kHeaderSize});
    for (int i = 0; i < 4; ++i) {
      bytes[12 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(crc >> (8 * i));
    }
    FrameDecoder dec;
    EXPECT_FALSE(dec.feed(bytes));
    EXPECT_EQ(dec.error(), WireError::kMalformedPayload);
  }
}

TEST(Wire, FrameTypePastShardStatusIsUnknown) {
  // Type 8 is the first unassigned id of protocol v1: a build from the
  // future must be rejected as kUnknownFrameType, not misparsed.
  std::vector<std::uint8_t> bytes = encode(ShardStatusFrame{.shard = 0});
  bytes[5] = 8;
  FrameDecoder dec;
  EXPECT_FALSE(dec.feed(bytes));
  EXPECT_EQ(dec.error(), WireError::kUnknownFrameType);
}

TEST(Wire, HelloRejectNamesAreStable) {
  EXPECT_STREQ(hello_reject_name(0), "accepted");
  EXPECT_STREQ(hello_reject_name(1), "node id out of range");
  EXPECT_STREQ(hello_reject_name(6), "wire protocol version mismatch");
  EXPECT_STREQ(hello_reject_name(7),
               "shard hello to a single-tier controller");
  EXPECT_STREQ(hello_reject_name(200), "unknown reason");
}

TEST(Wire, DescribeHelloRejectNamesBothVersionsOnMismatch) {
  const std::string described = describe_hello_reject(
      static_cast<std::uint8_t>(HelloReject::kVersionMismatch), 3);
  EXPECT_NE(described.find("version mismatch"), std::string::npos);
  EXPECT_NE(described.find(
                std::string("v").append(std::to_string(kProtocolVersion))),
            std::string::npos);
  EXPECT_NE(described.find("v3"), std::string::npos);
  // An ack from a build predating the speaker_version byte reports 0.
  const std::string legacy = describe_hello_reject(
      static_cast<std::uint8_t>(HelloReject::kVersionMismatch), 0);
  EXPECT_NE(legacy.find("unreported"), std::string::npos);
  // Non-version rejections stay a plain named reason.
  const std::string plain = describe_hello_reject(
      static_cast<std::uint8_t>(HelloReject::kDimensionMismatch), 0);
  EXPECT_EQ(plain, "reason 2: dimension mismatch");
}

TEST(Wire, Crc32MatchesTheIeeeCheckValue) {
  // The canonical check string from the CRC-32/ISO-HDLC specification.
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(check), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0x00000000u);
}

/// The plain bytewise CRC-32 loop (one table lookup per byte), kept here as
/// the reference the slicing-by-8 crc32() must equal.
std::uint32_t bytewise_crc32(const std::uint8_t* p, std::size_t n) {
  std::uint32_t table[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

TEST(Wire, Crc32EqualsTheBytewiseLoopAtEveryLengthAndAlignment) {
  // Lengths 0..1100 cover the 8-byte body with every 0-7 byte tail, and the
  // start offsets 0..7 every alignment of the 8-byte loads.
  std::mt19937_64 rng(7);
  std::vector<std::uint8_t> buf(1100 + 8);
  for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(rng());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      const std::uint8_t* p = buf.data() + offset;
      ASSERT_EQ(crc32({p, len}), bytewise_crc32(p, len))
          << "offset " << offset << " length " << len;
    }
  }
  const std::vector<std::uint8_t> ones(1024, 0xFF);
  EXPECT_EQ(crc32(ones), bytewise_crc32(ones.data(), ones.size()));
}

TEST(Wire, NextIntoDecodesMixedFramesReusingOneFrame) {
  // A measurement, a slot summary of another dimension and a heartbeat
  // through one decoder into one Frame: each decode replaces the previous
  // alternative, and a second measurement reuses the first's storage.
  const transport::MeasurementMessage m1 =
      sample_message(3, 40, {0.5, -0.0, 1e-300});
  const transport::MeasurementMessage m2 = sample_message(9, 41, {0.75});
  SlotSummaryFrame s;
  s.shard = 2;
  s.step = 41;
  s.num_resources = 5;
  s.measurements.push_back(sample_message(6, 41, {1, 2, 3, 4, 5}));
  s.measurements.push_back(sample_message(8, 41, {-1, -2, -3, -4, -5}));
  const HeartbeatFrame hb{.node = 11, .step = 42};

  std::vector<std::uint8_t> stream;
  for (const std::vector<std::uint8_t>& bytes :
       {encode(m1), encode(s), encode(hb), encode(m2)}) {
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  FrameDecoder dec;
  ASSERT_TRUE(dec.feed(stream));
  Frame out;

  ASSERT_TRUE(dec.next_into(out));
  auto* got1 = std::get_if<transport::MeasurementMessage>(&out);
  ASSERT_NE(got1, nullptr);
  EXPECT_EQ(got1->node, 3u);
  EXPECT_EQ(got1->step, 40u);
  ASSERT_EQ(got1->values.size(), 3u);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got1->values[r]),
              std::bit_cast<std::uint64_t>(m1.values[r]));
  }

  ASSERT_TRUE(dec.next_into(out));
  auto* got_s = std::get_if<SlotSummaryFrame>(&out);
  ASSERT_NE(got_s, nullptr);
  EXPECT_EQ(got_s->shard, 2u);
  EXPECT_EQ(got_s->num_resources, 5u);
  ASSERT_EQ(got_s->measurements.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(got_s->measurements[i].node, s.measurements[i].node);
    EXPECT_EQ(got_s->measurements[i].step, 41u);
    EXPECT_EQ(got_s->measurements[i].values, s.measurements[i].values);
  }

  ASSERT_TRUE(dec.next_into(out));
  auto* got_hb = std::get_if<HeartbeatFrame>(&out);
  ASSERT_NE(got_hb, nullptr);
  EXPECT_EQ(got_hb->node, 11u);
  EXPECT_EQ(got_hb->step, 42u);

  // Back to a measurement, then one more into the same alternative: its
  // value buffer is kept and resized, never stale.
  ASSERT_TRUE(dec.next_into(out));
  auto* got2 = std::get_if<transport::MeasurementMessage>(&out);
  ASSERT_NE(got2, nullptr);
  EXPECT_EQ(got2->node, 9u);
  EXPECT_EQ(got2->values, m2.values);
  ASSERT_TRUE(dec.feed(encode(m1)));
  got2->values.reserve(8);
  const double* storage = got2->values.data();
  ASSERT_TRUE(dec.next_into(out));
  EXPECT_EQ(std::get<transport::MeasurementMessage>(out).values.data(),
            storage);
  EXPECT_EQ(std::get<transport::MeasurementMessage>(out).values, m1.values);

  EXPECT_FALSE(dec.next_into(out));
  EXPECT_TRUE(dec.finish());
  EXPECT_EQ(dec.frames_decoded(), 5u);
}

TEST(Wire, DecoderKeepsUnreadFramesAcrossFeeds) {
  // Frames left unread when more bytes arrive survive the once-per-feed
  // compaction, in order, and a frame split across feeds completes.
  const std::vector<std::uint8_t> a = encode(sample_message(1, 1, {0.1}));
  const std::vector<std::uint8_t> b = encode(sample_message(2, 2, {0.2}));
  const std::vector<std::uint8_t> c = encode(sample_message(3, 3, {0.3}));
  FrameDecoder dec;
  ASSERT_TRUE(dec.feed(a));
  ASSERT_TRUE(dec.feed(b));
  ASSERT_TRUE(dec.feed({c.data(), 5}));
  EXPECT_FALSE(dec.at_frame_boundary());
  EXPECT_EQ(dec.buffered_bytes(), 5u);
  Frame out;
  ASSERT_TRUE(dec.next_into(out));
  EXPECT_EQ(std::get<transport::MeasurementMessage>(out).node, 1u);
  ASSERT_TRUE(dec.feed({c.data() + 5, c.size() - 5}));
  for (const std::size_t node : {2u, 3u}) {
    ASSERT_TRUE(dec.next_into(out));
    EXPECT_EQ(std::get<transport::MeasurementMessage>(out).node, node);
  }
  EXPECT_FALSE(dec.next_into(out));
  EXPECT_TRUE(dec.finish());
}

}  // namespace
}  // namespace resmon::net::wire
