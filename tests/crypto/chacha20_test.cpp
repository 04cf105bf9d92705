#include "crypto/chacha20.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "crypto/cpu_features.h"
#include "crypto/simd_levels.h"

namespace interedge::crypto {
namespace {

// RFC 8439 §2.3.2 block function test vector.
TEST(ChaCha20, Rfc8439BlockFunction) {
  const bytes key = from_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const bytes nonce = from_hex("000000090000004a00000000");
  std::uint8_t out[64];
  chacha20_block(key.data(), 1, nonce.data(), out);
  EXPECT_EQ(hex(const_byte_span(out, 64)),
            "10f1e7e4d13b5915500fdd1fa32071c4"
            "c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2"
            "b5129cd1de164eb9cbd083e8a2503c4e");
}

// RFC 8439 §2.4.2 encryption test vector.
TEST(ChaCha20, Rfc8439Encryption) {
  const bytes key = from_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const bytes nonce = from_hex("000000000000004a00000000");
  bytes plaintext = to_bytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  chacha20_xor(key.data(), 1, nonce.data(), plaintext);
  EXPECT_EQ(hex(plaintext),
            "6e2e359a2568f98041ba0728dd0d6981"
            "e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b357"
            "1639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e"
            "52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42"
            "874d");
}

TEST(ChaCha20, XorIsItsOwnInverse) {
  const bytes key(32, 0x42);
  const bytes nonce(12, 0x01);
  bytes data = to_bytes("round trip me");
  const bytes original = data;
  chacha20_xor(key.data(), 0, nonce.data(), data);
  EXPECT_NE(data, original);
  chacha20_xor(key.data(), 0, nonce.data(), data);
  EXPECT_EQ(data, original);
}

TEST(ChaCha20, CounterAdvancesKeystream) {
  const bytes key(32, 1);
  const bytes nonce(12, 2);
  bytes a(64, 0), b(64, 0);
  chacha20_xor(key.data(), 0, nonce.data(), a);
  chacha20_xor(key.data(), 1, nonce.data(), b);
  EXPECT_NE(a, b);
}

TEST(ChaCha20, MultiBlockMatchesBlockwise) {
  const bytes key(32, 3);
  const bytes nonce(12, 4);
  bytes all(150, 0);
  chacha20_xor(key.data(), 5, nonce.data(), all);

  bytes block_a(64, 0), block_b(64, 0), block_c(22, 0);
  chacha20_xor(key.data(), 5, nonce.data(), block_a);
  chacha20_xor(key.data(), 6, nonce.data(), block_b);
  chacha20_xor(key.data(), 7, nonce.data(), block_c);

  // Copied into place: GCC 12 at -O3 reports a false -Wstringop-overflow
  // when the blocks are appended with insert().
  bytes stitched(all.size());
  std::copy(block_a.begin(), block_a.end(), stitched.begin());
  std::copy(block_b.begin(), block_b.end(), stitched.begin() + 64);
  std::copy(block_c.begin(), block_c.end(), stitched.begin() + 128);
  EXPECT_EQ(all, stitched);
}

// The RFC 8439 §2.4.2 vector exercised through every available backend:
// the 114-byte message crosses the one-block boundary, so the multi-block
// bulk path and the partial-tail path both run against known answers.
TEST(ChaCha20, Rfc8439EncryptionOnEveryBackend) {
  const bytes key = from_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const bytes nonce = from_hex("000000000000004a00000000");
  const bytes plaintext = to_bytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  const char* expected =
      "6e2e359a2568f98041ba0728dd0d6981"
      "e97e7aec1d4360c20a27afccfd9fae0b"
      "f91b65c5524733ab8f593dabcd62b357"
      "1639d624e65152ab8f530c359f0861d8"
      "07ca0dbf500d6a6156a38e088a22b65e"
      "52bc514d16ccf806818ce91ab7793736"
      "5af90bbf74a35be6b40b8eedf2785e42"
      "874d";

  simd_level_guard guard;
  for (simd_level level : {simd_level::scalar, simd_level::sse2, simd_level::avx2}) {
    set_simd_level(level);
    if (active_simd_level() != level) continue;  // CPU lacks this backend
    bytes data = plaintext;
    chacha20_xor(key.data(), 1, nonce.data(), data);
    EXPECT_EQ(hex(data), expected) << "backend=" << simd_level_name(level);
  }
}

// A long multi-block run must equal the block function composed block by
// block — this is what proves the 4-block unrolled/vectorized keystream
// generation handles counter sequencing correctly.
TEST(ChaCha20, LongRunMatchesBlockFunctionComposition) {
  const bytes key = from_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const bytes nonce = from_hex("000000090000004a00000000");
  constexpr std::size_t kBlocks = 9;  // odd count: 2 full 4-block runs + 1
  bytes expected(kBlocks * kChaChaBlockSize, 0);
  for (std::size_t b = 0; b < kBlocks; ++b) {
    chacha20_block(key.data(), static_cast<std::uint32_t>(1 + b), nonce.data(),
                   expected.data() + b * kChaChaBlockSize);
  }

  simd_level_guard guard;
  for (simd_level level : {simd_level::scalar, simd_level::sse2, simd_level::avx2}) {
    set_simd_level(level);
    if (active_simd_level() != level) continue;
    bytes data(kBlocks * kChaChaBlockSize, 0);  // XOR with zeros = keystream
    chacha20_xor(key.data(), 1, nonce.data(), data);
    EXPECT_EQ(data, expected) << "backend=" << simd_level_name(level);
  }
}

// Every backend must be bit-identical to the scalar reference across all
// lengths around the block and 4-block boundaries, including length 0.
TEST(ChaCha20, VectorizedMatchesScalarAcrossLengths) {
  bytes key(kChaChaKeySize), nonce(kChaChaNonceSize);
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i * 13 + 1);
  for (std::size_t i = 0; i < nonce.size(); ++i) nonce[i] = static_cast<std::uint8_t>(i * 29 + 5);

  simd_level_guard guard;
  for (std::size_t len = 0; len <= 257; ++len) {
    bytes message(len);
    for (std::size_t i = 0; i < len; ++i) message[i] = static_cast<std::uint8_t>(i * 31 + 7);

    bytes reference = message;
    chacha20_xor_scalar(key.data(), 0, nonce.data(), reference);

    for (simd_level level : {simd_level::sse2, simd_level::avx2}) {
      set_simd_level(level);
      if (active_simd_level() != level) continue;
      bytes data = message;
      chacha20_xor(key.data(), 0, nonce.data(), data);
      EXPECT_EQ(data, reference) << "len=" << len << " backend=" << simd_level_name(level);
    }
  }
}

// The SIMD loads/stores are unaligned-safe: running on a buffer offset
// 1..15 bytes from its allocation must give the same bytes as the scalar
// path on the same misaligned view.
TEST(ChaCha20, VectorizedHandlesUnalignedBuffers) {
  const bytes key(kChaChaKeySize, 0x5a);
  const bytes nonce(kChaChaNonceSize, 0xa5);
  constexpr std::size_t kLen = 200;  // 3 full blocks + tail

  simd_level_guard guard;
  for (std::size_t offset = 1; offset < 16; ++offset) {
    bytes backing(offset + kLen);
    for (std::size_t i = 0; i < backing.size(); ++i)
      backing[i] = static_cast<std::uint8_t>(i * 17 + 3);
    bytes reference = backing;
    chacha20_xor_scalar(key.data(), 2, nonce.data(), byte_span(reference).subspan(offset));

    for (simd_level level : {simd_level::sse2, simd_level::avx2}) {
      set_simd_level(level);
      if (active_simd_level() != level) continue;
      bytes data = backing;
      chacha20_xor(key.data(), 2, nonce.data(), byte_span(data).subspan(offset));
      EXPECT_EQ(data, reference) << "offset=" << offset
                                 << " backend=" << simd_level_name(level);
    }
  }
}

// The multi-stream batch entry point: N blocks with independent
// counter/nonce rows (one pair per block, as the PSP batch path supplies
// them) must equal chacha20_block run N times, on every backend. Counts
// 1..11 cover every remainder the SIMD kernels pad to a quad (the single
// AEAD call asks for 1..4 blocks) on zero, one and two whole quads.
TEST(ChaCha20, KeystreamBlocksMatchesBlockFunctionPerStream) {
  bytes key(kChaChaKeySize);
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i * 7 + 9);

  constexpr std::size_t kMaxBlocks = 11;
  std::uint32_t counters[kMaxBlocks];
  bytes nonces(kMaxBlocks * kChaChaNonceSize);
  for (std::size_t b = 0; b < kMaxBlocks; ++b) {
    counters[b] = static_cast<std::uint32_t>(b % 3);  // distinct streams, repeated counters
    for (std::size_t i = 0; i < kChaChaNonceSize; ++i)
      nonces[b * kChaChaNonceSize + i] = static_cast<std::uint8_t>(b * 41 + i * 3 + 1);
  }

  bytes expected(kMaxBlocks * kChaChaBlockSize);
  for (std::size_t b = 0; b < kMaxBlocks; ++b) {
    chacha20_block(key.data(), counters[b], nonces.data() + b * kChaChaNonceSize,
                   expected.data() + b * kChaChaBlockSize);
  }

  simd_level_guard guard;
  for (simd_level level : {simd_level::scalar, simd_level::sse2, simd_level::avx2}) {
    set_simd_level(level);
    if (active_simd_level() != level) continue;
    for (std::size_t n = 1; n <= kMaxBlocks; ++n) {
      // One guard block past the end: the padded remainder must not spill.
      bytes out((n + 1) * kChaChaBlockSize, 0xee);
      const std::vector<const std::uint8_t*> keys(n, key.data());
      chacha20_keystream_blocks(keys.data(), counters, nonces.data(), n, out.data());
      EXPECT_TRUE(std::equal(out.begin(), out.begin() + n * kChaChaBlockSize, expected.begin()))
          << "n=" << n << " backend=" << simd_level_name(level);
      EXPECT_EQ(bytes(out.end() - kChaChaBlockSize, out.end()), bytes(kChaChaBlockSize, 0xee))
          << "n=" << n << " backend=" << simd_level_name(level);
    }
  }
}

// Per-block keys: every block of one call carries its own random key,
// counter and nonce, and must equal chacha20_block under that key, on
// every backend, for n = 1..11, with a guard block past the end.
TEST(ChaCha20, MultiKeyKeystreamMatchesBlockFunctionPerBlock) {
  constexpr std::size_t kMaxBlocks = 11;
  std::mt19937_64 rng(0xc4ac4a20);
  auto random_bytes = [&](std::size_t len) {
    bytes b(len);
    for (auto& x : b) x = static_cast<std::uint8_t>(rng());
    return b;
  };
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<bytes> keys;
    std::vector<const std::uint8_t*> key_ptrs;
    std::uint32_t counters[kMaxBlocks];
    const bytes nonces = random_bytes(kMaxBlocks * kChaChaNonceSize);
    for (std::size_t b = 0; b < kMaxBlocks; ++b) {
      keys.push_back(random_bytes(kChaChaKeySize));
      counters[b] = static_cast<std::uint32_t>(rng());
    }
    for (const bytes& k : keys) key_ptrs.push_back(k.data());

    bytes expected(kMaxBlocks * kChaChaBlockSize);
    for (std::size_t b = 0; b < kMaxBlocks; ++b) {
      chacha20_block(keys[b].data(), counters[b], nonces.data() + b * kChaChaNonceSize,
                     expected.data() + b * kChaChaBlockSize);
    }
    for_each_simd_level([&](simd_level level) {
      for (std::size_t n = 1; n <= kMaxBlocks; ++n) {
        bytes out((n + 1) * kChaChaBlockSize, 0xee);
        chacha20_keystream_blocks(key_ptrs.data(), counters, nonces.data(), n, out.data());
        EXPECT_TRUE(std::equal(out.begin(), out.begin() + n * kChaChaBlockSize, expected.begin()))
            << "n=" << n << " trial=" << trial << " backend=" << simd_level_name(level);
        EXPECT_EQ(bytes(out.end() - kChaChaBlockSize, out.end()), bytes(kChaChaBlockSize, 0xee))
            << "n=" << n << " trial=" << trial << " backend=" << simd_level_name(level);
      }
    });
  }
}

// Forcing a level the CPU lacks clamps to what it has; forcing scalar
// always works. Either way chacha20_backend() reports the live choice.
TEST(ChaCha20, SimdLevelClampsToDetected) {
  simd_level_guard guard;
  set_simd_level(simd_level::avx2);
  EXPECT_LE(static_cast<int>(active_simd_level()), static_cast<int>(detect_simd_level()));
  set_simd_level(simd_level::scalar);
  EXPECT_EQ(active_simd_level(), simd_level::scalar);
  EXPECT_STREQ(chacha20_backend(), "scalar");
}

}  // namespace
}  // namespace interedge::crypto
