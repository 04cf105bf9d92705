// ChaCha20 stream cipher (RFC 8439): 256-bit key, 96-bit nonce,
// 32-bit block counter.
//
// Both entry points below run on SIMD kernels (SSE2/AVX2, selected at
// runtime via the cpu_features probe) that make four blocks per pass; a
// count or length that is not a whole quad is padded to one, so no block
// comes from the scalar core while a SIMD level is active. The scalar core
// is the fallback without SIMD and stays exported so tests can prove the
// vectorized paths bit-identical.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace interedge::crypto {

inline constexpr std::size_t kChaChaKeySize = 32;
inline constexpr std::size_t kChaChaNonceSize = 12;
inline constexpr std::size_t kChaChaBlockSize = 64;

// Generates one 64-byte keystream block.
void chacha20_block(const std::uint8_t key[kChaChaKeySize], std::uint32_t counter,
                    const std::uint8_t nonce[kChaChaNonceSize], std::uint8_t out[64]);

// XORs `data` in place with the keystream starting at `counter`.
// Dispatches to the best backend for active_simd_level().
void chacha20_xor(const std::uint8_t key[kChaChaKeySize], std::uint32_t counter,
                  const std::uint8_t nonce[kChaChaNonceSize], byte_span data);

// Portable reference path (4-block unrolled, word-wise XOR, no SIMD).
void chacha20_xor_scalar(const std::uint8_t key[kChaChaKeySize], std::uint32_t counter,
                         const std::uint8_t nonce[kChaChaNonceSize], byte_span data);

// Generates `n` independent 64-byte keystream blocks: block i uses the
// 32-byte key at keys[i], counters[i] and the 12-byte nonce at
// nonces + 12*i. Any n is fine. This is the AEAD's keystream source: the
// 4-block SIMD kernels load each block's own key, so one call covers the
// blocks of many packets, whether of one pipe (a batch open) or of many
// (a fan-out's copies, each sealed under its own pipe's key). A single
// packet's one to four head blocks make one padded pass.
void chacha20_keystream_blocks(const std::uint8_t* const* keys, const std::uint32_t* counters,
                               const std::uint8_t* nonces, std::size_t n, std::uint8_t* out);

// Backend chacha20_xor will use for the current active_simd_level().
const char* chacha20_backend();

}  // namespace interedge::crypto
