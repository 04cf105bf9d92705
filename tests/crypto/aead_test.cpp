#include "crypto/aead.h"

#include <gtest/gtest.h>

#include "crypto/simd_levels.h"

namespace interedge::crypto {
namespace {

bytes pattern(std::size_t len, std::uint8_t seed) {
  bytes b(len);
  for (std::size_t i = 0; i < len; ++i) b[i] = static_cast<std::uint8_t>(i * 31 + seed);
  return b;
}

void append_le64(bytes& b, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

// RFC 8439 §2.8 composed from the primitives alone: the scalar cipher from
// counter 1, and Poly1305 keyed by the scalar block at counter 0 over
// aad || pad16 || ciphertext || pad16 || le64(aad len) || le64(ct len).
bytes reference_seal(const bytes& key, const bytes& nonce, const bytes& aad,
                     const bytes& plaintext) {
  bytes sealed = plaintext;
  chacha20_xor_scalar(key.data(), 1, nonce.data(), sealed);
  std::uint8_t block0[kChaChaBlockSize];
  chacha20_block(key.data(), 0, nonce.data(), block0);
  bytes mac_input = aad;
  mac_input.resize((mac_input.size() + 15) / 16 * 16);
  mac_input.insert(mac_input.end(), sealed.begin(), sealed.end());
  mac_input.resize((mac_input.size() + 15) / 16 * 16);
  append_le64(mac_input, aad.size());
  append_le64(mac_input, sealed.size());
  const poly_tag tag = poly1305::mac(block0, mac_input);
  sealed.insert(sealed.end(), tag.begin(), tag.end());
  return sealed;
}

// RFC 8439 §2.8.2 AEAD test vector.
TEST(Aead, Rfc8439Vector) {
  const bytes key = from_hex("808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  const bytes nonce = from_hex("070000004041424344454647");
  const bytes aad = from_hex("50515253c0c1c2c3c4c5c6c7");
  const bytes plaintext = to_bytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");

  const bytes sealed = aead_seal(key.data(), nonce.data(), aad, plaintext);
  ASSERT_EQ(sealed.size(), plaintext.size() + kAeadTagSize);

  const const_byte_span tag = const_byte_span(sealed).last(kAeadTagSize);
  EXPECT_EQ(hex(tag), "1ae10b594f09e26a7e902ecbd0600691");

  const const_byte_span ct = const_byte_span(sealed).first(plaintext.size());
  EXPECT_EQ(hex(ct.first(16)), "d31a8d34648e60db7b86afbc53ef7ec2");

  const auto opened = aead_open(key.data(), nonce.data(), aad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, plaintext);
}

TEST(Aead, TamperedCiphertextRejected) {
  const bytes key(32, 1);
  const bytes nonce(12, 2);
  bytes sealed = aead_seal(key.data(), nonce.data(), {}, to_bytes("payload"));
  sealed[0] ^= 0x01;
  EXPECT_FALSE(aead_open(key.data(), nonce.data(), {}, sealed).has_value());
}

TEST(Aead, TamperedTagRejected) {
  const bytes key(32, 1);
  const bytes nonce(12, 2);
  bytes sealed = aead_seal(key.data(), nonce.data(), {}, to_bytes("payload"));
  sealed.back() ^= 0x01;
  EXPECT_FALSE(aead_open(key.data(), nonce.data(), {}, sealed).has_value());
}

TEST(Aead, WrongAadRejected) {
  const bytes key(32, 1);
  const bytes nonce(12, 2);
  const bytes sealed = aead_seal(key.data(), nonce.data(), to_bytes("context-a"), to_bytes("p"));
  EXPECT_FALSE(aead_open(key.data(), nonce.data(), to_bytes("context-b"), sealed).has_value());
  EXPECT_TRUE(aead_open(key.data(), nonce.data(), to_bytes("context-a"), sealed).has_value());
}

TEST(Aead, WrongKeyRejected) {
  const bytes key_a(32, 1), key_b(32, 2);
  const bytes nonce(12, 3);
  const bytes sealed = aead_seal(key_a.data(), nonce.data(), {}, to_bytes("p"));
  EXPECT_FALSE(aead_open(key_b.data(), nonce.data(), {}, sealed).has_value());
}

TEST(Aead, EmptyPlaintextRoundTrip) {
  const bytes key(32, 1);
  const bytes nonce(12, 2);
  const bytes sealed = aead_seal(key.data(), nonce.data(), to_bytes("aad"), {});
  EXPECT_EQ(sealed.size(), kAeadTagSize);
  const auto opened = aead_open(key.data(), nonce.data(), to_bytes("aad"), sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->empty());
}

TEST(Aead, TooShortInputRejected) {
  const bytes key(32, 1);
  const bytes nonce(12, 2);
  EXPECT_FALSE(aead_open(key.data(), nonce.data(), {}, bytes(5, 0)).has_value());
}

// The single-packet path takes block 0 and up to three cipher blocks from
// one keystream-kernel call and continues from counter 4 past 192 B. On
// every backend and every length around those edges it must give the
// reference's bytes, and open them back (separately and in place).
TEST(Aead, SealIntoMatchesScalarReferenceOnEveryBackend) {
  const bytes key = pattern(kAeadKeySize, 3);
  const bytes aad_a = pattern(12, 5);
  const bytes aad_b = pattern(7, 9);
  bytes aad = aad_a;
  aad.insert(aad.end(), aad_b.begin(), aad_b.end());

  for_each_simd_level([&](simd_level level) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const bytes nonce = pattern(kAeadNonceSize, static_cast<std::uint8_t>(len));
      const bytes plaintext = pattern(len, 11);
      const bytes expected = reference_seal(key, nonce, aad, plaintext);

      bytes sealed(len + kAeadTagSize);
      aead_seal_into(key.data(), nonce.data(), aad_a, aad_b, plaintext, sealed);
      ASSERT_EQ(sealed, expected) << "len=" << len << " backend=" << simd_level_name(level);

      bytes in_place = plaintext;
      in_place.resize(len + kAeadTagSize);
      aead_seal_into(key.data(), nonce.data(), aad_a, aad_b,
                     const_byte_span(in_place).first(len), in_place);
      EXPECT_EQ(in_place, expected) << "in-place len=" << len;

      bytes opened(len);
      ASSERT_TRUE(aead_open_into(key.data(), nonce.data(), aad_a, aad_b, sealed, opened))
          << "len=" << len << " backend=" << simd_level_name(level);
      EXPECT_EQ(opened, plaintext) << "len=" << len;

      // In-place open: `out` is exactly the ciphertext region.
      ASSERT_TRUE(aead_open_into(key.data(), nonce.data(), aad_a, aad_b, sealed,
                                 byte_span(sealed).first(len)));
      EXPECT_EQ(bytes(sealed.begin(), sealed.begin() + static_cast<std::ptrdiff_t>(len)),
                plaintext)
          << "in-place open len=" << len << " backend=" << simd_level_name(level);
    }
  });
}

// One flipped bit anywhere in ciphertext, tag or AAD fails the open before
// a byte of `out` is written — whether `out` is a separate buffer or the
// ciphertext region itself.
TEST(Aead, OpenIntoRejectsAnyFlippedBitWithoutWritingOut) {
  const bytes key = pattern(kAeadKeySize, 21);
  const bytes nonce = pattern(kAeadNonceSize, 22);
  for_each_simd_level([&](simd_level level) {
    for (std::size_t len : {0, 1, 37, 64, 100, 192, 193, 300}) {
      bytes aad = pattern(20, 23);
      const bytes sealed =
          aead_seal(key.data(), nonce.data(), aad, pattern(len, static_cast<std::uint8_t>(len)));
      auto expect_rejected = [&](const bytes& wire, const char* what, std::size_t at) {
        const bytes sentinel(len, 0xa5);
        bytes out = sentinel;
        EXPECT_FALSE(aead_open_into(key.data(), nonce.data(), aad, {}, wire, out));
        EXPECT_EQ(out, sentinel) << what << " byte " << at << " len=" << len
                                 << " backend=" << simd_level_name(level);
        bytes aliased = wire;
        EXPECT_FALSE(aead_open_into(key.data(), nonce.data(), aad, {}, aliased,
                                    byte_span(aliased).first(len)));
        EXPECT_EQ(aliased, wire) << what << " byte " << at << " (in place) len=" << len;
      };
      for (std::size_t i = 0; i < sealed.size(); ++i) {
        bytes flipped = sealed;
        flipped[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
        expect_rejected(flipped, i < len ? "ciphertext" : "tag", i);
      }
      for (std::size_t i = 0; i < aad.size(); ++i) {
        aad[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
        expect_rejected(sealed, "aad", i);
        aad[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
      }
    }
  });
}

// Property sweep over payload sizes including block boundaries.
class AeadSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AeadSizeSweep, RoundTrip) {
  const bytes key(32, 9);
  const bytes nonce(12, 8);
  bytes plaintext(GetParam());
  for (std::size_t i = 0; i < plaintext.size(); ++i) plaintext[i] = static_cast<std::uint8_t>(i);
  const bytes sealed = aead_seal(key.data(), nonce.data(), to_bytes("hdr"), plaintext);
  const auto opened = aead_open(key.data(), nonce.data(), to_bytes("hdr"), sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, plaintext);
}

INSTANTIATE_TEST_SUITE_P(Sizes, AeadSizeSweep,
                         ::testing::Values(0, 1, 15, 16, 17, 63, 64, 65, 127, 128, 255, 1024,
                                           1500, 9000));

}  // namespace
}  // namespace interedge::crypto
