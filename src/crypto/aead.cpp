#include "crypto/aead.h"

#include <algorithm>
#include <cstring>

namespace interedge::crypto {
namespace {

// AAD || pad || ciphertext || pad || lengths, the MAC input of RFC 8439
// §2.8, fits this stack image for every ILP header seal (a 20-byte AAD
// with up to 208 bytes of ciphertext): then the tag is one blocks() pass.
constexpr std::size_t kTagImageSize = 256;

constexpr std::size_t pad16(std::size_t n) { return (n + 15) & ~std::size_t{15}; }

void store_lengths(std::uint8_t out[16], std::uint64_t aad_len, std::uint64_t ct_len) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<std::uint8_t>(aad_len >> (8 * i));
    out[8 + i] = static_cast<std::uint8_t>(ct_len >> (8 * i));
  }
}

// Writes the MAC input into `image`; returns its length, or 0 when it
// does not fit.
std::size_t build_tag_image(const_byte_span aad_a, const_byte_span aad_b,
                            const_byte_span ciphertext, std::uint8_t image[kTagImageSize]) {
  const std::size_t aad_len = aad_a.size() + aad_b.size();
  const std::size_t ct_at = pad16(aad_len);
  const std::size_t lengths_at = ct_at + pad16(ciphertext.size());
  if (lengths_at + 16 > kTagImageSize) return 0;
  // Zero the padded regions a whole block at a time (fixed-size stores),
  // then lay the bytes over them.
  for (std::size_t at = 0; at < lengths_at; at += 16) std::memset(image + at, 0, 16);
  if (!aad_a.empty()) std::memcpy(image, aad_a.data(), aad_a.size());
  if (!aad_b.empty()) std::memcpy(image + aad_a.size(), aad_b.data(), aad_b.size());
  if (!ciphertext.empty()) std::memcpy(image + ct_at, ciphertext.data(), ciphertext.size());
  store_lengths(image + lengths_at, aad_len, ciphertext.size());
  return lengths_at + 16;
}

poly_tag tag_with_poly_key(const std::uint8_t poly_key[kPolyKeySize], const_byte_span aad_a,
                           const_byte_span aad_b, const_byte_span ciphertext) {
  std::uint8_t image[kTagImageSize];
  if (const std::size_t len = build_tag_image(aad_a, aad_b, ciphertext, image); len > 0) {
    return poly1305::mac(poly_key, const_byte_span(image, len));
  }
  poly1305 mac(poly_key);
  static constexpr std::uint8_t zeros[15] = {};
  const std::size_t aad_len = aad_a.size() + aad_b.size();
  mac.update(aad_a);
  mac.update(aad_b);
  mac.update(const_byte_span(zeros, pad16(aad_len) - aad_len));
  mac.update(ciphertext);
  mac.update(const_byte_span(zeros, pad16(ciphertext.size()) - ciphertext.size()));
  std::uint8_t lengths[16];
  store_lengths(lengths, aad_len, ciphertext.size());
  mac.update(lengths);
  return mac.finish();
}

// XORs `data` with the cipher-stream part of a precomputed keystream
// (blocks 1.., i.e. keystream + 64).
void xor_with_keystream(byte_span data, const_byte_span keystream) {
  const std::uint8_t* ks = keystream.data() + kChaChaBlockSize;
  std::size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    std::uint64_t v, k;
    std::memcpy(&v, data.data() + i, 8);
    std::memcpy(&k, ks + i, 8);
    v ^= k;
    std::memcpy(data.data() + i, &v, 8);
  }
  for (; i < data.size(); ++i) data[i] ^= ks[i];
}

// A single packet's block 0 (the Poly1305 key) and its first three cipher
// blocks come from one chacha20_keystream_blocks call; cipher bytes past
// kHeadCipherBytes continue with chacha20_xor from counter kHeadBlocks.
constexpr std::size_t kHeadBlocks = 4;
constexpr std::size_t kHeadCipherBytes = (kHeadBlocks - 1) * kChaChaBlockSize;

struct head_keystream {
  std::uint8_t blocks[kHeadBlocks * kChaChaBlockSize];

  head_keystream(const std::uint8_t key[kAeadKeySize], const std::uint8_t nonce[kAeadNonceSize],
                 std::size_t text_len) {
    static constexpr std::uint32_t kCounters[kHeadBlocks] = {0, 1, 2, 3};
    const std::uint8_t* keys[kHeadBlocks];
    std::uint8_t nonces[kHeadBlocks * kAeadNonceSize];
    for (std::size_t b = 0; b < kHeadBlocks; ++b) {
      keys[b] = key;
      std::memcpy(nonces + b * kAeadNonceSize, nonce, kAeadNonceSize);
    }
    chacha20_keystream_blocks(keys, kCounters, nonces,
                              aead_keystream_blocks(std::min(text_len, kHeadCipherBytes)), blocks);
  }

  const std::uint8_t* poly_key() const { return blocks; }

  // XORs `data` (the whole message) with the cipher stream.
  void xor_cipher(const std::uint8_t key[kAeadKeySize], const std::uint8_t nonce[kAeadNonceSize],
                  byte_span data) const {
    const std::size_t head = std::min(data.size(), kHeadCipherBytes);
    xor_with_keystream(data.first(head), const_byte_span(blocks, sizeof(blocks)));
    if (data.size() > head) chacha20_xor(key, kHeadBlocks, nonce, data.subspan(head));
  }
};

}  // namespace

void aead_seal_into(const std::uint8_t key[kAeadKeySize], const std::uint8_t nonce[kAeadNonceSize],
                    const_byte_span aad_a, const_byte_span aad_b, const_byte_span plaintext,
                    byte_span out) {
  if (out.data() != plaintext.data() && !plaintext.empty()) {
    std::memmove(out.data(), plaintext.data(), plaintext.size());
  }
  byte_span ciphertext = out.first(plaintext.size());
  const head_keystream ks(key, nonce, ciphertext.size());
  ks.xor_cipher(key, nonce, ciphertext);
  const poly_tag tag = tag_with_poly_key(ks.poly_key(), aad_a, aad_b, ciphertext);
  std::memcpy(out.data() + plaintext.size(), tag.data(), tag.size());
}

bool aead_open_into(const std::uint8_t key[kAeadKeySize], const std::uint8_t nonce[kAeadNonceSize],
                    const_byte_span aad_a, const_byte_span aad_b, const_byte_span sealed,
                    byte_span out) {
  if (sealed.size() < kAeadTagSize) return false;
  const const_byte_span ciphertext = sealed.first(sealed.size() - kAeadTagSize);
  const const_byte_span tag = sealed.last(kAeadTagSize);
  const head_keystream ks(key, nonce, ciphertext.size());
  const poly_tag expected = tag_with_poly_key(ks.poly_key(), aad_a, aad_b, ciphertext);
  if (!ct_equal(const_byte_span(expected.data(), expected.size()), tag)) return false;
  if (!ciphertext.empty()) std::memmove(out.data(), ciphertext.data(), ciphertext.size());
  ks.xor_cipher(key, nonce, out.first(ciphertext.size()));
  return true;
}

void aead_seal_with_keystream(const_byte_span keystream, const_byte_span aad_a,
                              const_byte_span aad_b, const_byte_span plaintext, byte_span out) {
  if (out.data() != plaintext.data() && !plaintext.empty()) {
    std::memmove(out.data(), plaintext.data(), plaintext.size());
  }
  byte_span ciphertext = out.first(plaintext.size());
  xor_with_keystream(ciphertext, keystream);
  const poly_tag tag = tag_with_poly_key(keystream.data(), aad_a, aad_b, ciphertext);
  std::memcpy(out.data() + plaintext.size(), tag.data(), tag.size());
}

bool aead_open_with_keystream(const_byte_span keystream, const_byte_span aad_a,
                              const_byte_span aad_b, const_byte_span sealed, byte_span out) {
  if (sealed.size() < kAeadTagSize) return false;
  const const_byte_span ciphertext = sealed.first(sealed.size() - kAeadTagSize);
  const const_byte_span tag = sealed.last(kAeadTagSize);
  const poly_tag expected = tag_with_poly_key(keystream.data(), aad_a, aad_b, ciphertext);
  if (!ct_equal(const_byte_span(expected.data(), expected.size()), tag)) return false;
  if (!ciphertext.empty()) std::memmove(out.data(), ciphertext.data(), ciphertext.size());
  xor_with_keystream(out.first(ciphertext.size()), keystream);
  return true;
}

bytes aead_seal(const std::uint8_t key[kAeadKeySize], const std::uint8_t nonce[kAeadNonceSize],
                const_byte_span aad, const_byte_span plaintext) {
  bytes out(plaintext.size() + kAeadTagSize);
  aead_seal_into(key, nonce, aad, {}, plaintext, out);
  return out;
}

std::optional<bytes> aead_open(const std::uint8_t key[kAeadKeySize],
                               const std::uint8_t nonce[kAeadNonceSize], const_byte_span aad,
                               const_byte_span sealed) {
  if (sealed.size() < kAeadTagSize) return std::nullopt;
  bytes out(sealed.size() - kAeadTagSize);
  if (!aead_open_into(key, nonce, aad, {}, sealed, out)) return std::nullopt;
  return out;
}

}  // namespace interedge::crypto
