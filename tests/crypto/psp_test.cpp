#include "crypto/psp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "crypto/simd_levels.h"

namespace interedge::crypto {
namespace {

psp_master_key test_master(std::uint8_t fill = 0x44) {
  psp_master_key k;
  k.fill(fill);
  return k;
}

bytes pattern(std::size_t len, std::uint8_t seed) {
  bytes b(len);
  for (std::size_t i = 0; i < len; ++i) b[i] = static_cast<std::uint8_t>(i * 7 + seed);
  return b;
}

TEST(Psp, SealOpenRoundTrip) {
  psp_context tx(test_master(), 7);
  const psp_context rx(test_master(), 7);
  const bytes wire = tx.seal(to_bytes("ilp header bytes"), to_bytes("aad"));
  const auto opened = rx.open(wire, to_bytes("aad"));
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(to_string(*opened), "ilp header bytes");
}

TEST(Psp, WireOverheadIsFixed) {
  psp_context tx(test_master(), 1);
  const bytes wire = tx.seal(to_bytes("x"), {});
  EXPECT_EQ(wire.size(), 1 + kPspOverhead);
}

// The zero-copy ingress path decrypts in place: open_into's destination is
// exactly the wire's ciphertext region. Pin the aliasing guarantee the
// datapath depends on (tag verified before any write, memmove-safe xor).
TEST(Psp, OpenIntoAliasingCiphertextRegion) {
  psp_context tx(test_master(), 9);
  const psp_context rx(test_master(), 9);
  const bytes plain = to_bytes("ilp header that decrypts in place");
  bytes wire = tx.seal(plain, to_bytes("aad"));

  byte_span dst = byte_span(wire).subspan(12, wire.size() - kPspOverhead);
  const auto n = rx.open_into(wire, to_bytes("aad"), dst);
  ASSERT_TRUE(n.has_value());
  ASSERT_EQ(*n, plain.size());
  EXPECT_EQ(to_string(const_byte_span(dst.data(), *n)), to_string(plain));
}

TEST(Psp, OpenIntoAliasedFailureLeavesWireIntact) {
  psp_context tx(test_master(), 9);
  const psp_context rx(test_master(), 9);
  bytes wire = tx.seal(to_bytes("do not touch on failure"), {});
  wire[wire.size() - 1] ^= 0x01;  // break the tag
  const bytes before = wire;

  byte_span dst = byte_span(wire).subspan(12, wire.size() - kPspOverhead);
  EXPECT_FALSE(rx.open_into(wire, {}, dst).has_value());
  // Authentication failed before any plaintext byte was written: the wire
  // (including the region dst aliases) is byte-identical.
  EXPECT_EQ(wire, before);
}

TEST(Psp, OutOfOrderPacketsOpen) {
  psp_context tx(test_master(), 3);
  psp_context rx(test_master(), 3);
  const bytes w1 = tx.seal(to_bytes("first"), {});
  const bytes w2 = tx.seal(to_bytes("second"), {});
  const bytes w3 = tx.seal(to_bytes("third"), {});
  // Receiver sees 3, 1, 2 — PSP is stateless per packet, all must open.
  EXPECT_EQ(to_string(*rx.open(w3, {})), "third");
  EXPECT_EQ(to_string(*rx.open(w1, {})), "first");
  EXPECT_EQ(to_string(*rx.open(w2, {})), "second");
}

TEST(Psp, WrongAadRejected) {
  psp_context tx(test_master(), 3);
  const psp_context rx(test_master(), 3);
  const bytes wire = tx.seal(to_bytes("data"), to_bytes("outer-src=A"));
  EXPECT_FALSE(rx.open(wire, to_bytes("outer-src=B")).has_value());
}

TEST(Psp, TamperedPacketRejected) {
  psp_context tx(test_master(), 3);
  const psp_context rx(test_master(), 3);
  bytes wire = tx.seal(to_bytes("data"), {});
  wire[wire.size() / 2] ^= 0x80;
  EXPECT_FALSE(rx.open(wire, {}).has_value());
}

TEST(Psp, WrongMasterKeyRejected) {
  psp_context tx(test_master(0x11), 3);
  const psp_context rx(test_master(0x22), 3);
  const bytes wire = tx.seal(to_bytes("data"), {});
  EXPECT_FALSE(rx.open(wire, {}).has_value());
}

TEST(Psp, UnknownSpiRejected) {
  psp_context tx(test_master(), 3);
  const psp_context rx(test_master(), 4);  // different SPI base
  const bytes wire = tx.seal(to_bytes("data"), {});
  EXPECT_FALSE(rx.open(wire, {}).has_value());
}

TEST(Psp, RotationFlipsEpochBitAndChangesKey) {
  psp_context tx(test_master(), 9);
  const std::uint32_t spi0 = tx.current_spi();
  tx.rotate();
  EXPECT_NE(tx.current_spi(), spi0);
  EXPECT_EQ(tx.current_spi() & 0x7fffffffu, spi0 & 0x7fffffffu);
  EXPECT_EQ(tx.epoch(), 1u);
}

TEST(Psp, ReceiverAcceptsPreviousEpochDuringRotation) {
  psp_context tx(test_master(), 9);
  psp_context rx(test_master(), 9);
  const bytes old_wire = tx.seal(to_bytes("pre-rotation"), {});
  tx.rotate();
  rx.rotate();
  const bytes new_wire = tx.seal(to_bytes("post-rotation"), {});
  // In-flight packet from the previous epoch still opens.
  EXPECT_EQ(to_string(*rx.open(old_wire, {})), "pre-rotation");
  EXPECT_EQ(to_string(*rx.open(new_wire, {})), "post-rotation");
}

TEST(Psp, TwoEpochsBackRejected) {
  psp_context tx(test_master(), 9);
  psp_context rx(test_master(), 9);
  const bytes ancient = tx.seal(to_bytes("epoch-0"), {});
  for (int i = 0; i < 2; ++i) {
    tx.rotate();
    rx.rotate();
  }
  // Epoch 0 and epoch 2 share an SPI (one epoch bit) but use different keys.
  EXPECT_FALSE(rx.open(ancient, {}).has_value());
}

TEST(Psp, IvCounterResetOnRotate) {
  psp_context tx(test_master(), 9);
  tx.seal(to_bytes("a"), {});
  tx.seal(to_bytes("b"), {});
  EXPECT_EQ(tx.packets_sealed(), 2u);
  tx.rotate();
  EXPECT_EQ(tx.packets_sealed(), 0u);
}

TEST(Psp, DistinctPacketsDistinctCiphertext) {
  psp_context tx(test_master(), 5);
  const bytes w1 = tx.seal(to_bytes("same"), {});
  const bytes w2 = tx.seal(to_bytes("same"), {});
  EXPECT_NE(w1, w2);  // IV advances
}

TEST(Psp, SealIntoMatchesSeal) {
  psp_context tx_a(test_master(), 7);
  psp_context tx_b(test_master(), 7);
  const bytes plaintext = to_bytes("scratch-buffer seal");
  const bytes aad = to_bytes("aad");
  const bytes wire = tx_a.seal(plaintext, aad);
  bytes scratch(plaintext.size() + kPspOverhead);
  const std::size_t n = tx_b.seal_into(plaintext, aad, scratch);
  EXPECT_EQ(n, wire.size());
  EXPECT_EQ(scratch, wire);  // same spi/iv sequence → identical wire bytes
}

TEST(Psp, OpenIntoRoundTripAndReject) {
  psp_context tx(test_master(), 7);
  const psp_context rx(test_master(), 7);
  const bytes aad = to_bytes("aad");
  bytes wire = tx.seal(to_bytes("payload"), aad);
  bytes out(wire.size() - kPspOverhead);
  const auto n = rx.open_into(wire, aad, out);
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(*n, out.size());
  EXPECT_EQ(to_string(out), "payload");
  wire[wire.size() - 1] ^= 1;  // corrupt the tag
  EXPECT_FALSE(rx.open_into(wire, aad, out).has_value());
}

TEST(Psp, SealBatchOpenBatchRoundTrip) {
  psp_context tx(test_master(), 5);
  const psp_context rx(test_master(), 5);
  const bytes aad = to_bytes("batch-aad");

  constexpr std::size_t kCount = 8;
  std::vector<bytes> plaintexts(kCount);
  std::vector<const_byte_span> pt_spans(kCount);
  std::vector<bytes> wires(kCount);
  std::vector<byte_span> wire_spans(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    plaintexts[i].assign(32 + i * 11, static_cast<std::uint8_t>(i + 1));
    pt_spans[i] = plaintexts[i];
    wires[i].resize(plaintexts[i].size() + kPspOverhead);
    wire_spans[i] = wires[i];
  }
  std::vector<psp_seal_job> jobs;
  for (std::size_t i = 0; i < kCount; ++i) jobs.push_back({tx, pt_spans[i], aad, wire_spans[i]});
  psp_batch_scratch scratch;
  EXPECT_EQ(seal_batch(jobs, scratch), kCount);

  std::vector<const_byte_span> wire_views(wires.begin(), wires.end());
  const std::vector<const_byte_span> aads(kCount, aad);
  std::vector<bytes> opened(kCount);
  std::vector<byte_span> opened_spans(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    opened[i].resize(wires[i].size() - kPspOverhead);
    opened_spans[i] = opened[i];
  }
  // std::vector<bool> is bit-packed and cannot back a span<bool>.
  bool ok_flags[kCount] = {};
  EXPECT_EQ(rx.open_batch(wire_views, aads, opened_spans, ok_flags), kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_TRUE(ok_flags[i]) << i;
    EXPECT_EQ(opened[i], plaintexts[i]) << i;
  }
}

TEST(Psp, OpenBatchRejectsTamperedPacketOnly) {
  psp_context tx(test_master(), 5);
  const psp_context rx(test_master(), 5);
  constexpr std::size_t kCount = 4;
  std::vector<bytes> wires(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    wires[i] = tx.seal(bytes(24, static_cast<std::uint8_t>(i)), {});
  }
  wires[2][wires[2].size() / 2] ^= 0x40;  // tamper with one packet

  std::vector<const_byte_span> wire_views(wires.begin(), wires.end());
  std::vector<bytes> opened(kCount);
  std::vector<byte_span> opened_spans(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    opened[i].resize(wires[i].size() - kPspOverhead);
    opened_spans[i] = opened[i];
  }
  bool ok_flags[kCount] = {};
  const std::vector<const_byte_span> aads(kCount);
  EXPECT_EQ(rx.open_batch(wire_views, aads, opened_spans, ok_flags), kCount - 1);
  EXPECT_TRUE(ok_flags[0]);
  EXPECT_TRUE(ok_flags[1]);
  EXPECT_FALSE(ok_flags[2]);
  EXPECT_TRUE(ok_flags[3]);
  EXPECT_EQ(opened[3], bytes(24, 3));  // packets after the bad one still open
}

// The single-packet seal and the batch seal are one keystream path: for
// the same IV they write the same wire bytes, on every backend and every
// header length 0..300. Batches of seven mixed lengths give the batch
// kernel call every block-count remainder.
TEST(Psp, SealIntoMatchesSealBatchOnEveryBackend) {
  const bytes aad = to_bytes("aad");
  for_each_simd_level([&](simd_level level) {
    psp_context single(test_master(), 6);
    psp_context batched(test_master(), 6);
    psp_batch_scratch scratch;
    constexpr std::size_t kBatch = 7;
    for (std::size_t first = 0; first <= 300; first += kBatch) {
      std::vector<bytes> plaintexts, wires;
      for (std::size_t len = first; len < first + kBatch && len <= 300; ++len) {
        plaintexts.push_back(pattern(len, static_cast<std::uint8_t>(len)));
        wires.emplace_back(len + kPspOverhead);
      }
      std::vector<psp_seal_job> jobs;
      for (std::size_t i = 0; i < plaintexts.size(); ++i) {
        jobs.push_back({batched, plaintexts[i], aad, wires[i]});
      }
      ASSERT_EQ(seal_batch(jobs, scratch), plaintexts.size());
      for (std::size_t i = 0; i < plaintexts.size(); ++i) {
        bytes wire(plaintexts[i].size() + kPspOverhead);
        single.seal_into(plaintexts[i], aad, wire);
        EXPECT_EQ(wire, wires[i]) << "len=" << plaintexts[i].size()
                                  << " backend=" << simd_level_name(level);
      }
    }
  });
}

// A multi-key batch: jobs interleave four contexts with distinct keys
// (and, after a rotation, a second epoch), plaintexts of 0..300 bytes,
// some sealed in place. Every wire equals seal_into on a twin context fed
// the same sequence, so each context's IVs rise by one in job order, on
// every backend.
TEST(Psp, MultiKeySealBatchMatchesSealIntoOnEveryBackend) {
  constexpr std::size_t kContexts = 4;
  for_each_simd_level([&](simd_level level) {
    std::vector<psp_context> batched, twins;
    for (std::size_t c = 0; c < kContexts; ++c) {
      const auto fill = static_cast<std::uint8_t>(0x30 + c);
      batched.emplace_back(test_master(fill), static_cast<std::uint32_t>(10 + c));
      twins.emplace_back(test_master(fill), static_cast<std::uint32_t>(10 + c));
    }
    batched[3].rotate();
    twins[3].rotate();
    psp_batch_scratch scratch;
    std::size_t len = 0;
    for (std::size_t round = 0; len <= 300; ++round) {
      // 1..9 jobs per call, so the calls hit every quad remainder.
      const std::size_t count = 1 + round % 9;
      std::vector<bytes> plaintexts, wires, aads;
      std::vector<std::size_t> owner;
      for (std::size_t j = 0; j < count && len <= 300; ++j, len += 3) {
        owner.push_back((round + j * 3) % kContexts);
        plaintexts.push_back(pattern(len, static_cast<std::uint8_t>(len + round)));
        aads.emplace_back(j % 21, static_cast<std::uint8_t>(0xa0 + j));
        wires.emplace_back(len + kPspOverhead);
      }
      std::vector<psp_seal_job> jobs;
      for (std::size_t j = 0; j < plaintexts.size(); ++j) {
        // Odd jobs seal in place: the plaintext already sits at out + 12.
        const_byte_span plain = plaintexts[j];
        if (j % 2 == 1) {
          std::copy(plaintexts[j].begin(), plaintexts[j].end(), wires[j].begin() + 12);
          plain = const_byte_span(wires[j]).subspan(12, plaintexts[j].size());
        }
        jobs.push_back({batched[owner[j]], plain, aads[j], wires[j]});
      }
      ASSERT_EQ(seal_batch(jobs, scratch), jobs.size());
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        bytes wire(plaintexts[j].size() + kPspOverhead);
        twins[owner[j]].seal_into(plaintexts[j], aads[j], wire);
        EXPECT_EQ(wire, wires[j]) << "len=" << plaintexts[j].size() << " ctx=" << owner[j]
                                  << " backend=" << simd_level_name(level);
      }
    }
    for (std::size_t c = 0; c < kContexts; ++c) {
      EXPECT_EQ(batched[c].packets_sealed(), twins[c].packets_sealed()) << c;
    }
  });
}

// open_into rejects one flipped bit in the iv, ciphertext, tag or AAD with
// `out` untouched, and an in-place open (out = the ciphertext region)
// round-trips, on every backend.
TEST(Psp, OpenIntoRejectsFlippedBitsAndOpensInPlaceOnEveryBackend) {
  for_each_simd_level([&](simd_level level) {
    psp_context tx(test_master(), 8);
    const psp_context rx(test_master(), 8);
    for (std::size_t len : {0, 37, 64, 100, 193}) {
      bytes aad = pattern(8, 1);
      const bytes plain = pattern(len, 2);
      const bytes wire = tx.seal(plain, aad);
      const bytes sentinel(len, 0x5a);
      // Byte 4 on: iv, ciphertext, tag (bytes 0..3 are the SPI, whose
      // flip is an unknown-SPI reject).
      for (std::size_t i = 4; i < wire.size(); ++i) {
        bytes flipped = wire;
        flipped[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
        bytes out = sentinel;
        EXPECT_FALSE(rx.open_into(flipped, aad, out).has_value()) << "byte " << i;
        EXPECT_EQ(out, sentinel) << "byte " << i << " len=" << len
                                 << " backend=" << simd_level_name(level);
      }
      for (std::size_t i = 0; i < aad.size(); ++i) {
        aad[i] ^= 0x10;
        bytes out = sentinel;
        EXPECT_FALSE(rx.open_into(wire, aad, out).has_value()) << "aad byte " << i;
        EXPECT_EQ(out, sentinel) << "aad byte " << i << " len=" << len;
        aad[i] ^= 0x10;
      }
      bytes in_place = wire;
      const auto n = rx.open_into(in_place, aad, byte_span(in_place).subspan(12, len));
      ASSERT_TRUE(n.has_value()) << "len=" << len << " backend=" << simd_level_name(level);
      const auto body = in_place.begin() + 12;
      EXPECT_EQ(bytes(body, body + static_cast<std::ptrdiff_t>(len)), plain);
    }
  });
}

class PspPayloadSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PspPayloadSweep, RoundTrip) {
  psp_context tx(test_master(), 2);
  const psp_context rx(test_master(), 2);
  bytes payload(GetParam());
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<std::uint8_t>(i * 7);
  const auto opened = rx.open(tx.seal(payload, {}), {});
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PspPayloadSweep,
                         ::testing::Values(0, 1, 16, 64, 512, 1400, 9000));

}  // namespace
}  // namespace interedge::crypto
