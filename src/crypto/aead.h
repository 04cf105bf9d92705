// AEAD_CHACHA20_POLY1305 (RFC 8439 §2.8). The sealing primitive behind
// ILP header protection (via PSP-lite) and the peering tunnels.
//
// The *_into variants are the datapath entry points: they write into
// caller-provided scratch (no heap allocation) and take the AAD in two
// parts so PSP can bind spi||iv plus caller context without concatenating
// into a temporary. The bytes-returning wrappers keep the convenient API.
//
// Single and batched calls share one keystream path: *_into makes block 0
// (the Poly1305 key) and the first three cipher blocks of its nonce in one
// chacha20_keystream_blocks call (chacha20_xor continues past 192 bytes),
// and the batch paths hand *_with_keystream slices of one such call.
#pragma once

#include <optional>

#include "common/bytes.h"
#include "crypto/chacha20.h"
#include "crypto/poly1305.h"

namespace interedge::crypto {

inline constexpr std::size_t kAeadKeySize = 32;
inline constexpr std::size_t kAeadNonceSize = 12;
inline constexpr std::size_t kAeadTagSize = 16;

// Encrypts `plaintext` into `out` as ciphertext || 16-byte tag. `out` must
// hold plaintext.size() + kAeadTagSize bytes; in-place operation
// (out.data() == plaintext.data()) is allowed. The effective AAD is the
// concatenation aad_a || aad_b.
void aead_seal_into(const std::uint8_t key[kAeadKeySize], const std::uint8_t nonce[kAeadNonceSize],
                    const_byte_span aad_a, const_byte_span aad_b, const_byte_span plaintext,
                    byte_span out);

// Verifies ciphertext || tag and decrypts into `out` (which must hold
// sealed.size() - kAeadTagSize bytes); false on authentication failure, in
// which case `out` is untouched.
bool aead_open_into(const std::uint8_t key[kAeadKeySize], const std::uint8_t nonce[kAeadNonceSize],
                    const_byte_span aad_a, const_byte_span aad_b, const_byte_span sealed,
                    byte_span out);

// Number of 64-byte ChaCha20 blocks a packet of `plaintext_len` (or
// decrypted `sealed_len - kAeadTagSize`) bytes consumes: block 0 yields
// the one-time Poly1305 key, blocks 1.. the cipher stream.
inline constexpr std::size_t aead_keystream_blocks(std::size_t plaintext_len) {
  return 1 + (plaintext_len + kChaChaBlockSize - 1) / kChaChaBlockSize;
}

// Keystream-supplied variants for the batched datapath: `keystream` holds
// aead_keystream_blocks(len) * 64 bytes generated for this packet's nonce
// with counters 0, 1, ... (see chacha20_keystream_blocks). Semantics match
// aead_seal_into / aead_open_into exactly; no ChaCha state is initialized
// per call, which is what lets a batch of small packets share the 4-block
// SIMD kernels.
void aead_seal_with_keystream(const_byte_span keystream, const_byte_span aad_a,
                              const_byte_span aad_b, const_byte_span plaintext, byte_span out);
bool aead_open_with_keystream(const_byte_span keystream, const_byte_span aad_a,
                              const_byte_span aad_b, const_byte_span sealed, byte_span out);

// Encrypts `plaintext` and returns ciphertext || 16-byte tag.
bytes aead_seal(const std::uint8_t key[kAeadKeySize], const std::uint8_t nonce[kAeadNonceSize],
                const_byte_span aad, const_byte_span plaintext);

// Verifies and decrypts ciphertext || tag; nullopt on authentication failure.
std::optional<bytes> aead_open(const std::uint8_t key[kAeadKeySize],
                               const std::uint8_t nonce[kAeadNonceSize], const_byte_span aad,
                               const_byte_span sealed);

}  // namespace interedge::crypto
