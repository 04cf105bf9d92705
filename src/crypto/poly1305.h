// Poly1305 one-time authenticator (RFC 8439).
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace interedge::crypto {

inline constexpr std::size_t kPolyKeySize = 32;
inline constexpr std::size_t kPolyTagSize = 16;

using poly_tag = std::array<std::uint8_t, kPolyTagSize>;

class poly1305 {
 public:
  explicit poly1305(const std::uint8_t key[kPolyKeySize]);
  // A span whose length is a multiple of 16, fed while nothing is
  // buffered, runs as one blocks() pass (the AEAD tag's stack image).
  void update(const_byte_span data);
  poly_tag finish();

  static poly_tag mac(const std::uint8_t key[kPolyKeySize], const_byte_span data) {
    poly1305 p(key);
    p.update(data);
    return p.finish();
  }


 private:
  // Accumulates `count` consecutive 16-byte blocks with r and h held in
  // locals across the whole run. `hibit` is the 2^128 pad bit in the top
  // limb's position: set for full blocks, 0 for the padded final one.
  void blocks(const std::uint8_t* m, std::size_t count, std::uint64_t hibit);
  // 44/44/42-bit limbs (donna-64): limb products fit in unsigned __int128.
  std::uint64_t r_[3];
  std::uint64_t h_[3];
  std::uint64_t pad_[2];
  std::array<std::uint8_t, 16> buffer_;
  std::size_t buffered_ = 0;
};

}  // namespace interedge::crypto
