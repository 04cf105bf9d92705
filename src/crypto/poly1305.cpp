// Poly1305 with 44/44/42-bit limbs (donna-64 layout): the accumulator and
// r are three 64-bit limbs, so a block costs nine 64x64->128 multiplies
// where 26-bit limbs cost twenty-five 32x32->64 ones.
#include "crypto/poly1305.h"

#include <cstring>

namespace interedge::crypto {
namespace {

using u128 = unsigned __int128;

constexpr std::uint64_t kMask44 = 0xfffffffffff;
constexpr std::uint64_t kMask42 = 0x3ffffffffff;
constexpr std::uint64_t kHibit = std::uint64_t{1} << 40;  // 2^128 in the top limb

std::uint64_t load64(const std::uint8_t* p) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
#else
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
#endif
}

void store64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

}  // namespace

poly1305::poly1305(const std::uint8_t key[kPolyKeySize]) {
  // r is clamped per the RFC.
  const std::uint64_t t0 = load64(key);
  const std::uint64_t t1 = load64(key + 8);
  r_[0] = t0 & 0xffc0fffffff;
  r_[1] = ((t0 >> 44) | (t1 << 20)) & 0xfffffc0ffff;
  r_[2] = (t1 >> 24) & 0x00ffffffc0f;
  h_[0] = h_[1] = h_[2] = 0;
  pad_[0] = load64(key + 16);
  pad_[1] = load64(key + 24);
}

void poly1305::blocks(const std::uint8_t* m, std::size_t count, std::uint64_t hibit) {
  const std::uint64_t r0 = r_[0], r1 = r_[1], r2 = r_[2];
  // Limb products that wrap past 2^130 fold back times 5 (2^130 = 5 mod
  // p); the extra 4 aligns the 44-bit limb boundary with bit 130.
  const std::uint64_t s1 = r1 * (5 << 2), s2 = r2 * (5 << 2);
  std::uint64_t h0 = h_[0], h1 = h_[1], h2 = h_[2];

  for (; count > 0; --count, m += 16) {
    // h += m
    const std::uint64_t t0 = load64(m);
    const std::uint64_t t1 = load64(m + 8);
    h0 += t0 & kMask44;
    h1 += ((t0 >> 44) | (t1 << 20)) & kMask44;
    h2 += ((t1 >> 24) & kMask42) | hibit;

    // h *= r mod 2^130 - 5
    const u128 d0 = u128{h0} * r0 + u128{h1} * s2 + u128{h2} * s1;
    u128 d1 = u128{h0} * r1 + u128{h1} * r0 + u128{h2} * s2;
    u128 d2 = u128{h0} * r2 + u128{h1} * r1 + u128{h2} * r0;

    // Partial carry propagation.
    std::uint64_t c = static_cast<std::uint64_t>(d0 >> 44);
    h0 = static_cast<std::uint64_t>(d0) & kMask44;
    d1 += c;
    c = static_cast<std::uint64_t>(d1 >> 44);
    h1 = static_cast<std::uint64_t>(d1) & kMask44;
    d2 += c;
    c = static_cast<std::uint64_t>(d2 >> 42);
    h2 = static_cast<std::uint64_t>(d2) & kMask42;
    h0 += c * 5;
    c = h0 >> 44;
    h0 &= kMask44;
    h1 += c;
  }

  h_[0] = h0;
  h_[1] = h1;
  h_[2] = h2;
}

void poly1305::update(const_byte_span data) {
  if (data.empty()) return;  // an empty span may carry a null data(), which memcpy rejects
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == buffer_.size()) {
      blocks(buffer_.data(), 1, kHibit);
      buffered_ = 0;
    }
  }
  // One blocks() run for the whole full-block span: r and h stay in
  // registers instead of round-tripping through the object per block.
  const std::size_t full = (data.size() - offset) / 16;
  if (full > 0) {
    blocks(data.data() + offset, full, kHibit);
    offset += full * 16;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

poly_tag poly1305::finish() {
  if (buffered_ > 0) {
    buffer_[buffered_] = 1;
    for (std::size_t i = buffered_ + 1; i < 16; ++i) buffer_[i] = 0;
    blocks(buffer_.data(), 1, 0);
    buffered_ = 0;
  }

  std::uint64_t h0 = h_[0], h1 = h_[1], h2 = h_[2];

  // Fully carry h.
  std::uint64_t c = h1 >> 44;
  h1 &= kMask44;
  h2 += c;
  c = h2 >> 42;
  h2 &= kMask42;
  h0 += c * 5;
  c = h0 >> 44;
  h0 &= kMask44;
  h1 += c;
  c = h1 >> 44;
  h1 &= kMask44;
  h2 += c;
  c = h2 >> 42;
  h2 &= kMask42;
  h0 += c * 5;
  c = h0 >> 44;
  h0 &= kMask44;
  h1 += c;

  // g = h + 5 - 2^130; select g if h >= p.
  std::uint64_t g0 = h0 + 5;
  c = g0 >> 44;
  g0 &= kMask44;
  std::uint64_t g1 = h1 + c;
  c = g1 >> 44;
  g1 &= kMask44;
  std::uint64_t g2 = h2 + c - (std::uint64_t{1} << 42);

  std::uint64_t mask = (g2 >> 63) - 1;  // all-ones if h >= p
  g0 &= mask;
  g1 &= mask;
  g2 &= mask;
  mask = ~mask;
  h0 = (h0 & mask) | g0;
  h1 = (h1 & mask) | g1;
  h2 = (h2 & mask) | g2;

  // tag = (h + pad) % 2^128
  const std::uint64_t t0 = pad_[0], t1 = pad_[1];
  h0 += t0 & kMask44;
  c = h0 >> 44;
  h0 &= kMask44;
  h1 += (((t0 >> 44) | (t1 << 20)) & kMask44) + c;
  c = h1 >> 44;
  h1 &= kMask44;
  h2 += ((t1 >> 24) & kMask42) + c;
  h2 &= kMask42;

  poly_tag tag;
  store64(tag.data(), h0 | (h1 << 44));
  store64(tag.data() + 8, (h1 >> 20) | (h2 << 24));
  return tag;
}

}  // namespace interedge::crypto
