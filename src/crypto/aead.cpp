#include "crypto/aead.h"

#include <algorithm>
#include <cstring>

namespace interedge::crypto {
namespace {

poly_tag tag_with_poly_key(const std::uint8_t poly_key[kPolyKeySize], const_byte_span aad_a,
                           const_byte_span aad_b, const_byte_span ciphertext) {
  poly1305 mac(poly_key);
  static constexpr std::uint8_t zeros[15] = {};
  mac.update(aad_a);
  mac.update(aad_b);
  const std::size_t aad_len = aad_a.size() + aad_b.size();
  if (aad_len % 16 != 0) mac.update(const_byte_span(zeros, 16 - aad_len % 16));
  mac.update(ciphertext);
  if (ciphertext.size() % 16 != 0) mac.update(const_byte_span(zeros, 16 - ciphertext.size() % 16));
  std::uint8_t lengths[16];
  const std::uint64_t ct_len = ciphertext.size();
  for (int i = 0; i < 8; ++i) {
    lengths[i] = static_cast<std::uint8_t>(static_cast<std::uint64_t>(aad_len) >> (8 * i));
    lengths[8 + i] = static_cast<std::uint8_t>(ct_len >> (8 * i));
  }
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
    std::uint8_t nonces[kHeadBlocks * kAeadNonceSize];
    for (std::size_t b = 0; b < kHeadBlocks; ++b) {
      std::memcpy(nonces + b * kAeadNonceSize, nonce, kAeadNonceSize);
    }
    chacha20_keystream_blocks(key, kCounters, nonces,
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
