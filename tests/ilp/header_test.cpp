#include "ilp/header.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "common/rng.h"
#include "common/serial.h"

namespace interedge::ilp {
namespace {

// The metadata entry count, as encode() writes it after the fixed fields.
std::uint64_t entry_count(const ilp_header& h) {
  const bytes wire = h.encode();
  reader r(wire);
  r.u32();
  r.u64();
  r.u16();
  return r.varint();
}

TEST(IlpHeader, EncodeDecodeRoundTrip) {
  ilp_header h;
  h.service = svc::pubsub;
  h.connection = 0xdeadbeefcafef00dull;
  h.flags = kFlagFromHost;
  h.set_meta_u64(meta_key::dest_addr, 42);
  h.set_meta_str(meta_key::control_op, "subscribe");
  h.set_meta(meta_key::service_data, to_bytes("topic=weather"));

  const ilp_header decoded = ilp_header::decode(h.encode());
  EXPECT_EQ(decoded, h);
}

TEST(IlpHeader, EmptyMetadata) {
  ilp_header h;
  h.service = svc::null_service;
  h.connection = 1;
  const ilp_header decoded = ilp_header::decode(h.encode());
  EXPECT_EQ(decoded, h);
  EXPECT_EQ(decoded.encode().size(), 4u + 8u + 2u + 1u);  // entry count 0, no entries
}

TEST(IlpHeader, TypedAccessors) {
  ilp_header h;
  h.set_meta_u64(meta_key::dest_addr, 77);
  h.set_meta_str(meta_key::control_op, "join");
  EXPECT_EQ(h.meta_u64(meta_key::dest_addr), 77u);
  EXPECT_EQ(h.meta_str(meta_key::control_op), "join");
  EXPECT_FALSE(h.meta_u64(meta_key::src_addr).has_value());
  EXPECT_FALSE(h.meta(meta_key::payer).has_value());
}

TEST(IlpHeader, MalformedU64MetaReturnsNullopt) {
  ilp_header h;
  h.set_meta(meta_key::dest_addr, to_bytes("abc"));  // wrong width
  EXPECT_FALSE(h.meta_u64(meta_key::dest_addr).has_value());
}

TEST(IlpHeader, TruncatedInputThrows) {
  ilp_header h;
  h.service = 5;
  h.set_meta_str(meta_key::service_data, "x");
  bytes encoded = h.encode();
  encoded.resize(encoded.size() - 1);
  EXPECT_THROW(ilp_header::decode(encoded), serial_error);
}

TEST(IlpHeader, TrailingGarbageThrows) {
  ilp_header h;
  bytes encoded = h.encode();
  encoded.push_back(0xff);
  EXPECT_THROW(ilp_header::decode(encoded), serial_error);
}

TEST(IlpHeader, ArbitraryMetadataSizeSupported) {
  // "we place no limits on the length ... of a packet's ILP header"
  ilp_header h;
  h.service = svc::delivery;
  bytes big(60000);
  rng r(3);
  r.fill(big);
  h.set_meta(meta_key::service_data, big);
  const ilp_header decoded = ilp_header::decode(h.encode());
  EXPECT_EQ(decoded.meta(meta_key::service_data)->size(), big.size());
  EXPECT_EQ(decoded, h);
}

TEST(IlpHeader, ServicePrivateKeysPreserved) {
  ilp_header h;
  h.set_meta_raw(0x1234, to_bytes("private"));
  const ilp_header decoded = ilp_header::decode(h.encode());
  ASSERT_TRUE(decoded.meta_raw(0x1234).has_value());
  EXPECT_EQ(to_string(*decoded.meta_raw(0x1234)), "private");
}

// Trace-context carriage (ISSUE 5): the context is ordinary sealed
// metadata — it round-trips through encode/decode, absent means untraced,
// and an unknown context version reads as untraced rather than erroring.
TEST(IlpHeader, TraceContextRoundTripsThroughSealedMetadata) {
  ilp_header h;
  h.service = svc::delivery;
  EXPECT_FALSE(h.trace_ctx().has_value());  // common path: no ctx at all

  trace::trace_context ctx;
  ctx.trace_id = 0xfeedbeef;
  ctx.parent_span = 0x1234;
  ctx.hop_count = 2;
  ctx.flags = trace::kTraceCtxSampled;
  h.set_trace(ctx);
  const ilp_header decoded = ilp_header::decode(h.encode());
  const auto back = decoded.trace_ctx();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, ctx);
}

TEST(IlpHeader, UnknownTraceContextVersionReadsAsUntraced) {
  ilp_header h;
  auto wire = trace::trace_context{}.encode();
  wire[0] = trace::kTraceCtxVersion + 1;  // future layout
  h.set_meta(meta_key::trace_ctx, wire);
  const ilp_header decoded = ilp_header::decode(h.encode());
  // The header itself still round-trips — only the context is ignored.
  EXPECT_FALSE(decoded.trace_ctx().has_value());
  EXPECT_TRUE(decoded.meta(meta_key::trace_ctx).has_value());
}

// Property: random headers round-trip.
TEST(IlpHeader, RandomizedRoundTrip) {
  rng random(99);
  for (int i = 0; i < 100; ++i) {
    ilp_header h;
    h.service = static_cast<service_id>(random.next());
    h.connection = random.next();
    h.flags = static_cast<std::uint16_t>(random.next());
    const int n_meta = static_cast<int>(random.below(6));
    for (int m = 0; m < n_meta; ++m) {
      bytes v(random.below(64));
      random.fill(v);
      h.set_meta_raw(static_cast<std::uint16_t>(random.next()), v);
    }
    EXPECT_EQ(ilp_header::decode(h.encode()), h);
  }
}

TEST(IlpHeader, RawKeySetReplacesAndEraseRemoves) {
  ilp_header h;
  h.set_meta_raw(0x200, to_bytes("b"));
  h.set_meta_raw(0x100, to_bytes("a"));
  h.set_meta_raw(0x200, to_bytes("bb"));
  EXPECT_EQ(entry_count(h), 2u);
  EXPECT_EQ(to_string(*h.meta_raw(0x200)), "bb");
  EXPECT_TRUE(h.erase_meta(0x100));
  EXPECT_FALSE(h.erase_meta(0x100));
  EXPECT_FALSE(h.meta_raw(0x100).has_value());
  EXPECT_EQ(entry_count(h), 1u);
  EXPECT_EQ(ilp_header::decode(h.encode()), h);
}

// A value taken from the header itself stays intact while the header
// moves its bytes to make room for it.
TEST(IlpHeader, SetFromOwnValue) {
  ilp_header h;
  h.set_meta_raw(0x300, bytes(40, 0x33));
  h.set_meta_raw(0x100, *h.meta_raw(0x300));  // inserted before the source
  h.set_meta_raw(0x400, *h.meta_raw(0x300));  // grows past the inline bytes
  for (std::uint16_t key : {0x100, 0x300, 0x400}) {
    const const_byte_span v = *h.meta_raw(key);
    EXPECT_EQ(bytes(v.begin(), v.end()), bytes(40, 0x33)) << "key " << key;
  }
}

// Sections up to kInlineMetadata stay inline; larger ones spill to the
// heap, and copies and moves of either kind keep the same bytes.
TEST(IlpHeader, InlineAndSpilledSectionsCopyAndMove) {
  for (std::size_t len : {std::size_t{0}, kInlineMetadata - 3, kInlineMetadata - 2,
                          kInlineMetadata, 4 * kInlineMetadata}) {
    ilp_header h;
    h.service = 9;
    h.set_meta_raw(0x100, bytes(len, 0x5a));
    const ilp_header copy = h;
    EXPECT_EQ(copy, h);
    ilp_header moved = std::move(h);
    EXPECT_EQ(moved, copy);
    ilp_header assigned;
    assigned.set_meta_raw(0x1, bytes(2 * kInlineMetadata, 1));  // spilled target
    assigned = copy;
    EXPECT_EQ(assigned, copy);
    assigned = std::move(moved);
    EXPECT_EQ(assigned, copy);
    EXPECT_EQ(ilp_header::decode(copy.encode()), copy);
  }
}

// ---- differential: the inline section against the std::map codec ------

// The std::map<u16, bytes> codec the inline section replaced, kept as the
// reference the differential tests compare against.
struct map_header {
  service_id service = 0;
  connection_id connection = 0;
  std::uint16_t flags = 0;
  std::map<std::uint16_t, bytes> metadata;

  bytes encode() const {
    writer w(32);
    w.u32(service);
    w.u64(connection);
    w.u16(flags);
    w.varint(metadata.size());
    for (const auto& [key, value] : metadata) {
      w.u16(key);
      w.blob(value);
    }
    return w.take();
  }

  static map_header decode(const_byte_span data) {
    reader r(data);
    map_header h;
    h.service = r.u32();
    h.connection = r.u64();
    h.flags = r.u16();
    const std::uint64_t n = r.varint();
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint16_t key = r.u16();
      const const_byte_span value = r.blob();
      h.metadata[key] = bytes(value.begin(), value.end());
    }
    if (!r.done()) throw serial_error("trailing bytes after ILP header");
    return h;
  }
};

// Same fields, same key -> value set, byte-identical encode().
void expect_same(const map_header& ref, const ilp_header& h) {
  EXPECT_EQ(h.service, ref.service);
  EXPECT_EQ(h.connection, ref.connection);
  EXPECT_EQ(h.flags, ref.flags);
  ASSERT_EQ(entry_count(h), ref.metadata.size());
  for (const auto& [key, value] : ref.metadata) {
    const auto got = h.meta_raw(key);
    ASSERT_TRUE(got.has_value()) << "key " << key;
    EXPECT_EQ(bytes(got->begin(), got->end()), value) << "key " << key;
  }
  EXPECT_EQ(h.encode(), ref.encode());
}

// Keys from a narrow band (so sets collide and replace) or anywhere.
std::uint16_t random_key(rng& random) {
  return static_cast<std::uint16_t>(random.chance(0.5) ? 1 + random.below(12) : random.next());
}

bytes random_value(rng& random) {
  // Mostly 0-120 B; now and then one large enough to spill on its own.
  bytes v(random.chance(0.05) ? kInlineMetadata + random.below(200) : random.below(121));
  random.fill(v);
  return v;
}

// Varint with `pad` redundant continuation bytes (pad 0 = canonical).
void padded_varint(writer& w, std::uint64_t v, int pad) {
  if (pad == 0) {
    w.varint(v);
    return;
  }
  while (v >= 0x80) {
    w.u8(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  w.u8(static_cast<std::uint8_t>(v) | 0x80);
  for (int i = 1; i < pad; ++i) w.u8(0x80);
  w.u8(0);
}

// Builds headers through both APIs with the same random set/erase calls.
TEST(IlpHeaderDifferential, SettersMatchMapCodec) {
  rng random(2024);
  for (int i = 0; i < 10000; ++i) {
    map_header ref;
    ilp_header h;
    ref.service = h.service = static_cast<service_id>(random.next());
    ref.connection = h.connection = random.next();
    ref.flags = h.flags = static_cast<std::uint16_t>(random.next());
    const int ops = static_cast<int>(random.below(9));
    for (int op = 0; op < ops; ++op) {
      const std::uint16_t key = random_key(random);
      if (random.chance(0.15)) {
        EXPECT_EQ(h.erase_meta(key), ref.metadata.erase(key) == 1);
      } else {
        const bytes v = random_value(random);
        ref.metadata[key] = v;
        h.set_meta_raw(key, v);
      }
    }
    expect_same(ref, h);
    const bytes wire = ref.encode();
    expect_same(map_header::decode(wire), ilp_header::decode(wire));
    if (HasFatalFailure()) return;
  }
}

// Hostile and non-canonical wire input: both decoders accept and reject
// the same inputs, and agree on what they accept.
TEST(IlpHeaderDifferential, MutatedWireInputsMatchMapCodec) {
  rng random(77);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int i = 0; i < 10000; ++i) {
    writer w;
    w.u32(static_cast<std::uint32_t>(random.next()));
    w.u64(random.next());
    w.u16(static_cast<std::uint16_t>(random.next()));
    const std::size_t n = random.below(9);
    const int count_pad = random.chance(0.1) ? 1 + static_cast<int>(random.below(3)) : 0;
    // A count that disagrees with the entries that follow, now and then.
    const std::uint64_t claimed = random.chance(0.1) ? random.below(12) : n;
    padded_varint(w, claimed, count_pad);
    const bool sorted = random.chance(0.3);
    std::uint16_t next_key = static_cast<std::uint16_t>(random.below(4));
    for (std::size_t e = 0; e < n; ++e) {
      // Sorted runs, shuffled keys and duplicates (narrow key band).
      std::uint16_t key = random_key(random);
      if (sorted) {
        key = next_key;
        next_key = static_cast<std::uint16_t>(next_key + 1 + random.below(3));
      }
      const bytes v = random_value(random);
      w.u16(key);
      padded_varint(w, v.size(), random.chance(0.15) ? 1 + static_cast<int>(random.below(3)) : 0);
      w.raw(v);
    }
    bytes wire = w.take();
    switch (random.below(5)) {
      case 0:  // truncated
        wire.resize(random.below(wire.size() + 1));
        break;
      case 1: {  // trailing bytes
        bytes extra(1 + random.below(4));
        random.fill(extra);
        wire.insert(wire.end(), extra.begin(), extra.end());
        break;
      }
      case 2:  // one flipped byte
        if (!wire.empty()) {
          wire[random.below(wire.size())] ^= static_cast<std::uint8_t>(1 + random.below(255));
        }
        break;
      default:  // as built
        break;
    }

    std::optional<map_header> ref;
    std::optional<ilp_header> got;
    try {
      ref = map_header::decode(wire);
    } catch (const serial_error&) {
    }
    try {
      got = ilp_header::decode(wire);
    } catch (const serial_error&) {
    }
    ASSERT_EQ(ref.has_value(), got.has_value()) << "input " << i << ": " << hex(wire);
    if (ref) {
      ++accepted;
      expect_same(*ref, *got);
      if (HasFatalFailure()) return;
    } else {
      ++rejected;
    }
  }
  // The mix exercises both outcomes in volume.
  EXPECT_GT(accepted, 3000u);
  EXPECT_GT(rejected, 2000u);
}

}  // namespace
}  // namespace interedge::ilp
