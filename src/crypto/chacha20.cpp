#include "crypto/chacha20.h"

#include <algorithm>
#include <cstring>

#include "crypto/cpu_features.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define INTEREDGE_CHACHA_SIMD 1
#include <immintrin.h>
#endif

namespace interedge::crypto {
namespace {

std::uint32_t rotl(std::uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

std::uint32_t load32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

void store32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

// `inline` matters: at -O2 GCC otherwise keeps this out of line and pays a
// call per quarter round (80 per block).
inline void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                          std::uint32_t& d) {
  a += b; d ^= a; d = rotl(d, 16);
  c += d; b ^= c; b = rotl(b, 12);
  a += b; d ^= a; d = rotl(d, 8);
  c += d; b ^= c; b = rotl(b, 7);
}

// 20 rounds + feed-forward over one block; `s` is the initial state.
void block_core(const std::uint32_t s[16], std::uint32_t w[16]) {
  std::memcpy(w, s, 16 * sizeof(std::uint32_t));
  for (int round = 0; round < 10; ++round) {
    quarter_round(w[0], w[4], w[8], w[12]);
    quarter_round(w[1], w[5], w[9], w[13]);
    quarter_round(w[2], w[6], w[10], w[14]);
    quarter_round(w[3], w[7], w[11], w[15]);
    quarter_round(w[0], w[5], w[10], w[15]);
    quarter_round(w[1], w[6], w[11], w[12]);
    quarter_round(w[2], w[7], w[8], w[13]);
    quarter_round(w[3], w[4], w[9], w[14]);
  }
  for (int i = 0; i < 16; ++i) w[i] += s[i];
}

// "expand 32-byte k": state words 0..3.
constexpr std::uint32_t kSigma[4] = {0x61707865, 0x3320646e, 0x79622d32, 0x6b206574};

void init_state(std::uint32_t s[16], const std::uint8_t key[kChaChaKeySize],
                std::uint32_t counter, const std::uint8_t nonce[kChaChaNonceSize]) {
  for (int i = 0; i < 4; ++i) s[i] = kSigma[i];
  for (int i = 0; i < 8; ++i) s[4 + i] = load32(key + 4 * i);
  s[12] = counter;
  for (int i = 0; i < 3; ++i) s[13 + i] = load32(nonce + 4 * i);
}

// XORs one full 64-byte block of `data` with keystream words, using
// word-wise loads/stores (unaligned-safe via memcpy).
void xor_block_words(std::uint8_t* data, const std::uint32_t w[16]) {
  for (int i = 0; i < 16; ++i) {
    std::uint32_t v;
    std::memcpy(&v, data + 4 * i, 4);
    v ^= w[i];  // keystream words are little-endian on the wire
    std::memcpy(data + 4 * i, &v, 4);
  }
}

// Scalar engine starting from a prepared state; consumes all of `data`,
// advancing s[12] one block at a time. Runs four independent block cores
// per iteration so the multiplier chains of adjacent blocks overlap.
void xor_scalar_from_state(std::uint32_t s[16], std::uint8_t* data, std::size_t size) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  constexpr bool kLittleEndian = true;
#else
  constexpr bool kLittleEndian = false;
#endif
  std::size_t offset = 0;
  if (kLittleEndian) {
    while (size - offset >= 4 * 64) {
      std::uint32_t w0[16], w1[16], w2[16], w3[16];
      block_core(s, w0);
      s[12]++;
      block_core(s, w1);
      s[12]++;
      block_core(s, w2);
      s[12]++;
      block_core(s, w3);
      s[12]++;
      xor_block_words(data + offset, w0);
      xor_block_words(data + offset + 64, w1);
      xor_block_words(data + offset + 128, w2);
      xor_block_words(data + offset + 192, w3);
      offset += 4 * 64;
    }
    while (size - offset >= 64) {
      std::uint32_t w[16];
      block_core(s, w);
      s[12]++;
      xor_block_words(data + offset, w);
      offset += 64;
    }
  }
  while (offset < size) {
    std::uint32_t w[16];
    block_core(s, w);
    s[12]++;
    std::uint8_t block[64];
    for (int i = 0; i < 16; ++i) store32(block + 4 * i, w[i]);
    const std::size_t take = std::min<std::size_t>(64, size - offset);
    for (std::size_t i = 0; i < take; ++i) data[offset + i] ^= block[i];
    offset += take;
  }
}

#ifdef INTEREDGE_CHACHA_SIMD

// ---- SSE2: four independent blocks per iteration, rows as vectors ------

template <int N>
__attribute__((target("sse2"))) inline __m128i rotl128(__m128i v) {
  return _mm_or_si128(_mm_slli_epi32(v, N), _mm_srli_epi32(v, 32 - N));
}

struct qstate {
  __m128i a, b, c, d;
};

__attribute__((target("sse2"))) inline void double_round(qstate& s) {
  // Column round.
  s.a = _mm_add_epi32(s.a, s.b);
  s.d = rotl128<16>(_mm_xor_si128(s.d, s.a));
  s.c = _mm_add_epi32(s.c, s.d);
  s.b = rotl128<12>(_mm_xor_si128(s.b, s.c));
  s.a = _mm_add_epi32(s.a, s.b);
  s.d = rotl128<8>(_mm_xor_si128(s.d, s.a));
  s.c = _mm_add_epi32(s.c, s.d);
  s.b = rotl128<7>(_mm_xor_si128(s.b, s.c));
  // Diagonalize, diagonal round, undiagonalize.
  s.b = _mm_shuffle_epi32(s.b, _MM_SHUFFLE(0, 3, 2, 1));
  s.c = _mm_shuffle_epi32(s.c, _MM_SHUFFLE(1, 0, 3, 2));
  s.d = _mm_shuffle_epi32(s.d, _MM_SHUFFLE(2, 1, 0, 3));
  s.a = _mm_add_epi32(s.a, s.b);
  s.d = rotl128<16>(_mm_xor_si128(s.d, s.a));
  s.c = _mm_add_epi32(s.c, s.d);
  s.b = rotl128<12>(_mm_xor_si128(s.b, s.c));
  s.a = _mm_add_epi32(s.a, s.b);
  s.d = rotl128<8>(_mm_xor_si128(s.d, s.a));
  s.c = _mm_add_epi32(s.c, s.d);
  s.b = rotl128<7>(_mm_xor_si128(s.b, s.c));
  s.b = _mm_shuffle_epi32(s.b, _MM_SHUFFLE(2, 1, 0, 3));
  s.c = _mm_shuffle_epi32(s.c, _MM_SHUFFLE(1, 0, 3, 2));
  s.d = _mm_shuffle_epi32(s.d, _MM_SHUFFLE(0, 3, 2, 1));
}

__attribute__((target("sse2"))) inline void store_block_sse2(std::uint8_t* out, const qstate& w,
                                                             const qstate& init) {
  const __m128i rows[4] = {
      _mm_add_epi32(w.a, init.a),
      _mm_add_epi32(w.b, init.b),
      _mm_add_epi32(w.c, init.c),
      _mm_add_epi32(w.d, init.d),
  };
  for (int r = 0; r < 4; ++r) {
    const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(out + 16 * r));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 16 * r), _mm_xor_si128(x, rows[r]));
  }
}

// Raw-keystream store: feed-forward add, no data XOR.
__attribute__((target("sse2"))) inline void store_keystream_sse2(std::uint8_t* out,
                                                                 const qstate& w,
                                                                 const qstate& init) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), _mm_add_epi32(w.a, init.a));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 16), _mm_add_epi32(w.b, init.b));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 32), _mm_add_epi32(w.c, init.c));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 48), _mm_add_epi32(w.d, init.d));
}

// Four independent-stream blocks per call: block i takes its key rows from
// keys[i] (rows b and c are the key's 32 bytes, which on this little-endian
// target load straight into the state words) and its counter/nonce row
// from the caller. Returns blocks consumed (a multiple of 4);
// chacha20_keystream_blocks pads the remainder to a quad.
__attribute__((target("sse2"))) std::size_t keystream_sse2(const std::uint8_t* const* keys,
                                                           const std::uint32_t* counters,
                                                           const std::uint8_t* nonces,
                                                           std::size_t n, std::uint8_t* out) {
  const __m128i row_a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(kSigma));
  std::size_t done = 0;
  while (n - done >= 4) {
    qstate init[4], w[4];
    for (int b = 0; b < 4; ++b) {
      const std::uint8_t* key = keys[done + b];
      const std::uint8_t* nonce = nonces + 12 * (done + b);
      init[b].a = row_a;
      init[b].b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(key));
      init[b].c = _mm_loadu_si128(reinterpret_cast<const __m128i*>(key + 16));
      init[b].d = _mm_set_epi32(static_cast<int>(load32(nonce + 8)),
                                static_cast<int>(load32(nonce + 4)),
                                static_cast<int>(load32(nonce)),
                                static_cast<int>(counters[done + b]));
      w[b] = init[b];
    }
    for (int round = 0; round < 10; ++round) {
      double_round(w[0]);
      double_round(w[1]);
      double_round(w[2]);
      double_round(w[3]);
    }
    for (int b = 0; b < 4; ++b) store_keystream_sse2(out + 64 * (done + b), w[b], init[b]);
    done += 4;
  }
  return done;
}

// Consumes full 256-byte chunks; returns the new offset, s[12] advanced.
__attribute__((target("sse2"))) std::size_t xor_sse2_bulk(std::uint32_t s[16], std::uint8_t* data,
                                                          std::size_t size) {
  const __m128i row_a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(s));
  const __m128i row_b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(s + 4));
  const __m128i row_c = _mm_loadu_si128(reinterpret_cast<const __m128i*>(s + 8));
  std::size_t offset = 0;
  while (size - offset >= 4 * 64) {
    qstate init[4], w[4];
    for (int b = 0; b < 4; ++b) {
      init[b].a = row_a;
      init[b].b = row_b;
      init[b].c = row_c;
      init[b].d = _mm_set_epi32(static_cast<int>(s[15]), static_cast<int>(s[14]),
                                static_cast<int>(s[13]),
                                static_cast<int>(s[12] + static_cast<std::uint32_t>(b)));
      w[b] = init[b];
    }
    for (int round = 0; round < 10; ++round) {
      double_round(w[0]);
      double_round(w[1]);
      double_round(w[2]);
      double_round(w[3]);
    }
    for (int b = 0; b < 4; ++b) store_block_sse2(data + offset + 64 * b, w[b], init[b]);
    s[12] += 4;
    offset += 4 * 64;
  }
  return offset;
}

// ---- AVX2: two blocks per vector, four blocks per iteration ------------

struct wstate {
  __m256i a, b, c, d;
};

__attribute__((target("avx2"))) inline __m256i rot16_256(__m256i v) {
  const __m256i mask = _mm256_setr_epi8(2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, 2, 3,
                                        0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13);
  return _mm256_shuffle_epi8(v, mask);
}

__attribute__((target("avx2"))) inline __m256i rot8_256(__m256i v) {
  const __m256i mask = _mm256_setr_epi8(3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, 3, 0,
                                        1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14);
  return _mm256_shuffle_epi8(v, mask);
}

template <int N>
__attribute__((target("avx2"))) inline __m256i rotl256(__m256i v) {
  return _mm256_or_si256(_mm256_slli_epi32(v, N), _mm256_srli_epi32(v, 32 - N));
}

__attribute__((target("avx2"))) inline void double_round256(wstate& s) {
  s.a = _mm256_add_epi32(s.a, s.b);
  s.d = rot16_256(_mm256_xor_si256(s.d, s.a));
  s.c = _mm256_add_epi32(s.c, s.d);
  s.b = rotl256<12>(_mm256_xor_si256(s.b, s.c));
  s.a = _mm256_add_epi32(s.a, s.b);
  s.d = rot8_256(_mm256_xor_si256(s.d, s.a));
  s.c = _mm256_add_epi32(s.c, s.d);
  s.b = rotl256<7>(_mm256_xor_si256(s.b, s.c));
  s.b = _mm256_shuffle_epi32(s.b, _MM_SHUFFLE(0, 3, 2, 1));
  s.c = _mm256_shuffle_epi32(s.c, _MM_SHUFFLE(1, 0, 3, 2));
  s.d = _mm256_shuffle_epi32(s.d, _MM_SHUFFLE(2, 1, 0, 3));
  s.a = _mm256_add_epi32(s.a, s.b);
  s.d = rot16_256(_mm256_xor_si256(s.d, s.a));
  s.c = _mm256_add_epi32(s.c, s.d);
  s.b = rotl256<12>(_mm256_xor_si256(s.b, s.c));
  s.a = _mm256_add_epi32(s.a, s.b);
  s.d = rot8_256(_mm256_xor_si256(s.d, s.a));
  s.c = _mm256_add_epi32(s.c, s.d);
  s.b = rotl256<7>(_mm256_xor_si256(s.b, s.c));
  s.b = _mm256_shuffle_epi32(s.b, _MM_SHUFFLE(2, 1, 0, 3));
  s.c = _mm256_shuffle_epi32(s.c, _MM_SHUFFLE(1, 0, 3, 2));
  s.d = _mm256_shuffle_epi32(s.d, _MM_SHUFFLE(0, 3, 2, 1));
}

// Writes one block pair (128 bytes): low lanes are block n, high lanes
// block n+1.
__attribute__((target("avx2"))) inline void store_pair_avx2(std::uint8_t* out, const wstate& w,
                                                            const wstate& init) {
  const __m256i rows[4] = {
      _mm256_add_epi32(w.a, init.a),
      _mm256_add_epi32(w.b, init.b),
      _mm256_add_epi32(w.c, init.c),
      _mm256_add_epi32(w.d, init.d),
  };
  const __m256i out0 = _mm256_permute2x128_si256(rows[0], rows[1], 0x20);
  const __m256i out1 = _mm256_permute2x128_si256(rows[2], rows[3], 0x20);
  const __m256i out2 = _mm256_permute2x128_si256(rows[0], rows[1], 0x31);
  const __m256i out3 = _mm256_permute2x128_si256(rows[2], rows[3], 0x31);
  const __m256i chunks[4] = {out0, out1, out2, out3};
  for (int i = 0; i < 4; ++i) {
    const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + 32 * i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 32 * i),
                        _mm256_xor_si256(x, chunks[i]));
  }
}

// Raw-keystream pair store (128 bytes, no data XOR).
__attribute__((target("avx2"))) inline void store_keystream_pair_avx2(std::uint8_t* out,
                                                                      const wstate& w,
                                                                      const wstate& init) {
  const __m256i rows[4] = {
      _mm256_add_epi32(w.a, init.a),
      _mm256_add_epi32(w.b, init.b),
      _mm256_add_epi32(w.c, init.c),
      _mm256_add_epi32(w.d, init.d),
  };
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                      _mm256_permute2x128_si256(rows[0], rows[1], 0x20));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 32),
                      _mm256_permute2x128_si256(rows[2], rows[3], 0x20));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 64),
                      _mm256_permute2x128_si256(rows[0], rows[1], 0x31));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 96),
                      _mm256_permute2x128_si256(rows[2], rows[3], 0x31));
}

// One key row for a block pair: `lo`'s 16 bytes in the low lanes, `hi`'s
// in the high lanes.
__attribute__((target("avx2"))) inline __m256i load_key_pair(const std::uint8_t* lo,
                                                            const std::uint8_t* hi) {
  return _mm256_inserti128_si256(
      _mm256_castsi128_si256(_mm_loadu_si128(reinterpret_cast<const __m128i*>(lo))),
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(hi)), 1);
}

// Four independent-stream blocks per iteration, two per 256-bit vector,
// each with its own key rows.
__attribute__((target("avx2"))) std::size_t keystream_avx2(const std::uint8_t* const* keys,
                                                           const std::uint32_t* counters,
                                                           const std::uint8_t* nonces,
                                                           std::size_t n, std::uint8_t* out) {
  const __m256i wa =
      _mm256_broadcastsi128_si256(_mm_loadu_si128(reinterpret_cast<const __m128i*>(kSigma)));
  std::size_t done = 0;
  while (n - done >= 4) {
    wstate init[2], w[2];
    for (int p = 0; p < 2; ++p) {
      const std::size_t lo = done + 2 * static_cast<std::size_t>(p);
      const std::uint8_t* n0 = nonces + 12 * lo;
      const std::uint8_t* n1 = n0 + 12;
      init[p].a = wa;
      init[p].b = load_key_pair(keys[lo], keys[lo + 1]);
      init[p].c = load_key_pair(keys[lo] + 16, keys[lo + 1] + 16);
      init[p].d = _mm256_set_epi32(
          static_cast<int>(load32(n1 + 8)), static_cast<int>(load32(n1 + 4)),
          static_cast<int>(load32(n1)), static_cast<int>(counters[lo + 1]),
          static_cast<int>(load32(n0 + 8)), static_cast<int>(load32(n0 + 4)),
          static_cast<int>(load32(n0)), static_cast<int>(counters[lo]));
      w[p] = init[p];
    }
    for (int round = 0; round < 10; ++round) {
      double_round256(w[0]);
      double_round256(w[1]);
    }
    store_keystream_pair_avx2(out + 64 * done, w[0], init[0]);
    store_keystream_pair_avx2(out + 64 * done + 128, w[1], init[1]);
    done += 4;
  }
  return done;
}

__attribute__((target("avx2"))) std::size_t xor_avx2_bulk(std::uint32_t s[16], std::uint8_t* data,
                                                          std::size_t size) {
  const __m128i row_a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(s));
  const __m128i row_b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(s + 4));
  const __m128i row_c = _mm_loadu_si128(reinterpret_cast<const __m128i*>(s + 8));
  const __m256i wa = _mm256_broadcastsi128_si256(row_a);
  const __m256i wb = _mm256_broadcastsi128_si256(row_b);
  const __m256i wc = _mm256_broadcastsi128_si256(row_c);
  std::size_t offset = 0;
  while (size - offset >= 4 * 64) {
    wstate init[2], w[2];
    for (int p = 0; p < 2; ++p) {
      const std::uint32_t c0 = s[12] + static_cast<std::uint32_t>(2 * p);
      const std::uint32_t c1 = s[12] + static_cast<std::uint32_t>(2 * p + 1);
      init[p].a = wa;
      init[p].b = wb;
      init[p].c = wc;
      init[p].d = _mm256_set_epi32(static_cast<int>(s[15]), static_cast<int>(s[14]),
                                   static_cast<int>(s[13]), static_cast<int>(c1),
                                   static_cast<int>(s[15]), static_cast<int>(s[14]),
                                   static_cast<int>(s[13]), static_cast<int>(c0));
      w[p] = init[p];
    }
    for (int round = 0; round < 10; ++round) {
      double_round256(w[0]);
      double_round256(w[1]);
    }
    store_pair_avx2(data + offset, w[0], init[0]);
    store_pair_avx2(data + offset + 128, w[1], init[1]);
    s[12] += 4;
    offset += 4 * 64;
  }
  return offset;
}

#endif  // INTEREDGE_CHACHA_SIMD

}  // namespace

void chacha20_block(const std::uint8_t key[kChaChaKeySize], std::uint32_t counter,
                    const std::uint8_t nonce[kChaChaNonceSize], std::uint8_t out[64]) {
  std::uint32_t s[16], w[16];
  init_state(s, key, counter, nonce);
  block_core(s, w);
  for (int i = 0; i < 16; ++i) store32(out + 4 * i, w[i]);
}

void chacha20_xor_scalar(const std::uint8_t key[kChaChaKeySize], std::uint32_t counter,
                         const std::uint8_t nonce[kChaChaNonceSize], byte_span data) {
  if (data.empty()) return;
  std::uint32_t s[16];
  init_state(s, key, counter, nonce);
  xor_scalar_from_state(s, data.data(), data.size());
}

void chacha20_xor(const std::uint8_t key[kChaChaKeySize], std::uint32_t counter,
                  const std::uint8_t nonce[kChaChaNonceSize], byte_span data) {
  if (data.empty()) return;
  std::uint32_t s[16];
  init_state(s, key, counter, nonce);
#ifdef INTEREDGE_CHACHA_SIMD
  const simd_level level = active_simd_level();
  if (level != simd_level::scalar) {
    auto* const bulk = level == simd_level::avx2 ? xor_avx2_bulk : xor_sse2_bulk;
    const std::size_t offset = bulk(s, data.data(), data.size());
    const std::size_t rest = data.size() - offset;
    if (rest > 0) {
      // A tail shorter than a quad runs the same kernel over a padded copy.
      std::uint8_t quad[4 * kChaChaBlockSize] = {};
      std::memcpy(quad, data.data() + offset, rest);
      bulk(s, quad, sizeof(quad));
      std::memcpy(data.data() + offset, quad, rest);
    }
    return;
  }
#endif
  xor_scalar_from_state(s, data.data(), data.size());
}

void chacha20_keystream_blocks(const std::uint8_t* const* keys, const std::uint32_t* counters,
                               const std::uint8_t* nonces, std::size_t n, std::uint8_t* out) {
#ifdef INTEREDGE_CHACHA_SIMD
  const simd_level level = active_simd_level();
  if (level != simd_level::scalar && n > 0) {
    auto* const kernel = level == simd_level::avx2 ? keystream_avx2 : keystream_sse2;
    const std::size_t done = kernel(keys, counters, nonces, n, out);
    const std::size_t rest = n - done;
    if (rest > 0) {
      // Pad the remainder to a quad by repeating its last stream.
      const std::uint8_t* quad_keys[4];
      std::uint32_t quad_counters[4];
      std::uint8_t quad_nonces[4 * kChaChaNonceSize];
      std::uint8_t quad[4 * kChaChaBlockSize];
      for (std::size_t b = 0; b < 4; ++b) {
        const std::size_t from = done + std::min(b, rest - 1);
        quad_keys[b] = keys[from];
        quad_counters[b] = counters[from];
        std::memcpy(quad_nonces + kChaChaNonceSize * b, nonces + kChaChaNonceSize * from,
                    kChaChaNonceSize);
      }
      kernel(quad_keys, quad_counters, quad_nonces, 4, quad);
      std::memcpy(out + kChaChaBlockSize * done, quad, kChaChaBlockSize * rest);
    }
    return;
  }
#endif
  for (std::size_t b = 0; b < n; ++b) {
    chacha20_block(keys[b], counters[b], nonces + kChaChaNonceSize * b,
                   out + kChaChaBlockSize * b);
  }
}

const char* chacha20_backend() {
#ifdef INTEREDGE_CHACHA_SIMD
  return simd_level_name(active_simd_level());
#else
  return "scalar";
#endif
}

}  // namespace interedge::crypto
