// The 26-bit-limb Poly1305 (donna-32 layout) the library used before it
// moved to 64-bit limbs, kept as an independent implementation to compare
// the production tags against.
#include "crypto/reference_poly1305.h"

#include <algorithm>
#include <cstring>

namespace interedge::crypto {
namespace {
std::uint32_t load32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}
}  // namespace

reference_poly1305::reference_poly1305(const std::uint8_t key[kPolyKeySize]) {
  // r is clamped per the RFC.
  r_[0] = load32(key + 0) & 0x3ffffff;
  r_[1] = (load32(key + 3) >> 2) & 0x3ffff03;
  r_[2] = (load32(key + 6) >> 4) & 0x3ffc0ff;
  r_[3] = (load32(key + 9) >> 6) & 0x3f03fff;
  r_[4] = (load32(key + 12) >> 8) & 0x00fffff;
  for (auto& h : h_) h = 0;
  for (int i = 0; i < 4; ++i) pad_[i] = load32(key + 16 + 4 * i);
}

void reference_poly1305::blocks(const std::uint8_t* m, std::size_t count, std::uint32_t hibit) {
  const std::uint32_t r0 = r_[0], r1 = r_[1], r2 = r_[2], r3 = r_[3], r4 = r_[4];
  const std::uint32_t s1 = r1 * 5, s2 = r2 * 5, s3 = r3 * 5, s4 = r4 * 5;

  std::uint32_t h0 = h_[0], h1 = h_[1], h2 = h_[2], h3 = h_[3], h4 = h_[4];

  while (count-- > 0) {
    // h += m
    h0 += load32(m + 0) & 0x3ffffff;
    h1 += (load32(m + 3) >> 2) & 0x3ffffff;
    h2 += (load32(m + 6) >> 4) & 0x3ffffff;
    h3 += (load32(m + 9) >> 6) & 0x3ffffff;
    h4 += (load32(m + 12) >> 8) | hibit;
    m += 16;

    // h *= r mod 2^130 - 5
    const std::uint64_t d0 = static_cast<std::uint64_t>(h0) * r0 +
                             static_cast<std::uint64_t>(h1) * s4 +
                             static_cast<std::uint64_t>(h2) * s3 +
                             static_cast<std::uint64_t>(h3) * s2 +
                             static_cast<std::uint64_t>(h4) * s1;
    std::uint64_t d1 = static_cast<std::uint64_t>(h0) * r1 + static_cast<std::uint64_t>(h1) * r0 +
                       static_cast<std::uint64_t>(h2) * s4 + static_cast<std::uint64_t>(h3) * s3 +
                       static_cast<std::uint64_t>(h4) * s2;
    std::uint64_t d2 = static_cast<std::uint64_t>(h0) * r2 + static_cast<std::uint64_t>(h1) * r1 +
                       static_cast<std::uint64_t>(h2) * r0 + static_cast<std::uint64_t>(h3) * s4 +
                       static_cast<std::uint64_t>(h4) * s3;
    std::uint64_t d3 = static_cast<std::uint64_t>(h0) * r3 + static_cast<std::uint64_t>(h1) * r2 +
                       static_cast<std::uint64_t>(h2) * r1 + static_cast<std::uint64_t>(h3) * r0 +
                       static_cast<std::uint64_t>(h4) * s4;
    std::uint64_t d4 = static_cast<std::uint64_t>(h0) * r4 + static_cast<std::uint64_t>(h1) * r3 +
                       static_cast<std::uint64_t>(h2) * r2 + static_cast<std::uint64_t>(h3) * r1 +
                       static_cast<std::uint64_t>(h4) * r0;

    // Partial carry propagation.
    std::uint32_t c = static_cast<std::uint32_t>(d0 >> 26);
    h0 = static_cast<std::uint32_t>(d0) & 0x3ffffff;
    d1 += c;
    c = static_cast<std::uint32_t>(d1 >> 26);
    h1 = static_cast<std::uint32_t>(d1) & 0x3ffffff;
    d2 += c;
    c = static_cast<std::uint32_t>(d2 >> 26);
    h2 = static_cast<std::uint32_t>(d2) & 0x3ffffff;
    d3 += c;
    c = static_cast<std::uint32_t>(d3 >> 26);
    h3 = static_cast<std::uint32_t>(d3) & 0x3ffffff;
    d4 += c;
    c = static_cast<std::uint32_t>(d4 >> 26);
    h4 = static_cast<std::uint32_t>(d4) & 0x3ffffff;
    h0 += c * 5;
    c = h0 >> 26;
    h0 &= 0x3ffffff;
    h1 += c;
  }

  h_[0] = h0;
  h_[1] = h1;
  h_[2] = h2;
  h_[3] = h3;
  h_[4] = h4;
}

void reference_poly1305::update(const_byte_span data) {
  if (data.empty()) return;  // an empty span may carry a null data(), which memcpy rejects
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == buffer_.size()) {
      block(buffer_.data(), 1u << 24);
      buffered_ = 0;
    }
  }
  // One blocks() run for the whole full-block span: r, s and h stay in
  // registers instead of round-tripping through the object per block.
  const std::size_t full = (data.size() - offset) / 16;
  if (full > 0) {
    blocks(data.data() + offset, full, 1u << 24);
    offset += full * 16;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

poly_tag reference_poly1305::finish() {
  if (buffered_ > 0) {
    buffer_[buffered_] = 1;
    for (std::size_t i = buffered_ + 1; i < 16; ++i) buffer_[i] = 0;
    block(buffer_.data(), 0);
    buffered_ = 0;
  }

  std::uint32_t h0 = h_[0], h1 = h_[1], h2 = h_[2], h3 = h_[3], h4 = h_[4];

  // Fully carry h.
  std::uint32_t c = h1 >> 26;
  h1 &= 0x3ffffff;
  h2 += c;
  c = h2 >> 26;
  h2 &= 0x3ffffff;
  h3 += c;
  c = h3 >> 26;
  h3 &= 0x3ffffff;
  h4 += c;
  c = h4 >> 26;
  h4 &= 0x3ffffff;
  h0 += c * 5;
  c = h0 >> 26;
  h0 &= 0x3ffffff;
  h1 += c;

  // g = h + 5 - 2^130; select g if h >= p.
  std::uint32_t g0 = h0 + 5;
  c = g0 >> 26;
  g0 &= 0x3ffffff;
  std::uint32_t g1 = h1 + c;
  c = g1 >> 26;
  g1 &= 0x3ffffff;
  std::uint32_t g2 = h2 + c;
  c = g2 >> 26;
  g2 &= 0x3ffffff;
  std::uint32_t g3 = h3 + c;
  c = g3 >> 26;
  g3 &= 0x3ffffff;
  std::uint32_t g4 = h4 + c - (1u << 26);

  std::uint32_t mask = (g4 >> 31) - 1;  // all-ones if h >= p
  g0 &= mask;
  g1 &= mask;
  g2 &= mask;
  g3 &= mask;
  g4 &= mask;
  mask = ~mask;
  h0 = (h0 & mask) | g0;
  h1 = (h1 & mask) | g1;
  h2 = (h2 & mask) | g2;
  h3 = (h3 & mask) | g3;
  h4 = (h4 & mask) | g4;

  // h = h % 2^128 in 32-bit words.
  h0 = (h0 | (h1 << 26)) & 0xffffffff;
  h1 = ((h1 >> 6) | (h2 << 20)) & 0xffffffff;
  h2 = ((h2 >> 12) | (h3 << 14)) & 0xffffffff;
  h3 = ((h3 >> 18) | (h4 << 8)) & 0xffffffff;

  // tag = (h + pad) % 2^128
  std::uint64_t f = static_cast<std::uint64_t>(h0) + pad_[0];
  h0 = static_cast<std::uint32_t>(f);
  f = static_cast<std::uint64_t>(h1) + pad_[1] + (f >> 32);
  h1 = static_cast<std::uint32_t>(f);
  f = static_cast<std::uint64_t>(h2) + pad_[2] + (f >> 32);
  h2 = static_cast<std::uint32_t>(f);
  f = static_cast<std::uint64_t>(h3) + pad_[3] + (f >> 32);
  h3 = static_cast<std::uint32_t>(f);

  poly_tag tag;
  const std::uint32_t words[4] = {h0, h1, h2, h3};
  for (int i = 0; i < 4; ++i) {
    tag[4 * i] = static_cast<std::uint8_t>(words[i]);
    tag[4 * i + 1] = static_cast<std::uint8_t>(words[i] >> 8);
    tag[4 * i + 2] = static_cast<std::uint8_t>(words[i] >> 16);
    tag[4 * i + 3] = static_cast<std::uint8_t>(words[i] >> 24);
  }
  return tag;
}

}  // namespace interedge::crypto
