// SipHash-2-4 keyed hash. Used to key the decision cache's hash map so a
// third party cannot force pathological collisions with crafted
// connection IDs.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>

#include "common/bytes.h"

namespace interedge::crypto {

using siphash_key = std::array<std::uint8_t, 16>;

std::uint64_t siphash24(const siphash_key& key, const_byte_span data);

// The key as the two little-endian words SipHash mixes in, loaded once.
struct siphash_key_words {
  std::uint64_t k0 = 0;
  std::uint64_t k1 = 0;
};
siphash_key_words load_key(const siphash_key& key);

namespace detail {
inline std::uint64_t rotl(std::uint64_t x, int b) { return (x << b) | (x >> (64 - b)); }

// `inline` matters: at -O2 GCC otherwise keeps this out of line and pays a
// call per round (two per 8-byte word, four more to finalize).
inline void sipround(std::uint64_t& v0, std::uint64_t& v1, std::uint64_t& v2,
                     std::uint64_t& v3) {
  v0 += v1;
  v1 = rotl(v1, 13);
  v1 ^= v0;
  v0 = rotl(v0, 32);
  v2 += v3;
  v3 = rotl(v3, 16);
  v3 ^= v2;
  v0 += v3;
  v3 = rotl(v3, 21);
  v3 ^= v0;
  v2 += v1;
  v1 = rotl(v1, 17);
  v1 ^= v2;
  v2 = rotl(v2, 32);
}
}  // namespace detail

// SipHash-2-4 of a message of 16 to 23 bytes handed over as words: the two
// full little-endian blocks m0 and m1, then the final block `last` with the
// remaining bytes in its low end and the message length in its top byte.
// Equals siphash24 over the same bytes without loading them one at a time.
inline std::uint64_t siphash24_words(const siphash_key_words& k, std::uint64_t m0,
                                     std::uint64_t m1, std::uint64_t last) {
  using detail::sipround;
  std::uint64_t v0 = 0x736f6d6570736575ull ^ k.k0;
  std::uint64_t v1 = 0x646f72616e646f6dull ^ k.k1;
  std::uint64_t v2 = 0x6c7967656e657261ull ^ k.k0;
  std::uint64_t v3 = 0x7465646279746573ull ^ k.k1;
  for (const std::uint64_t m : {m0, m1, last}) {
    v3 ^= m;
    sipround(v0, v1, v2, v3);
    sipround(v0, v1, v2, v3);
    v0 ^= m;
  }
  v2 ^= 0xff;
  for (int i = 0; i < 4; ++i) sipround(v0, v1, v2, v3);
  return v0 ^ v1 ^ v2 ^ v3;
}

}  // namespace interedge::crypto
