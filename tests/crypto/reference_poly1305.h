// Reference Poly1305 for differential tests: the 26-bit-limb (donna-32)
// implementation, same API as crypto::poly1305.
#pragma once

#include <array>
#include <cstdint>

#include "crypto/poly1305.h"

namespace interedge::crypto {

class reference_poly1305 {
 public:
  explicit reference_poly1305(const std::uint8_t key[kPolyKeySize]);
  void update(const_byte_span data);
  poly_tag finish();

  static poly_tag mac(const std::uint8_t key[kPolyKeySize], const_byte_span data) {
    reference_poly1305 p(key);
    p.update(data);
    return p.finish();
  }

 private:
  void block(const std::uint8_t* m, std::uint32_t hibit) { blocks(m, 1, hibit); }
  void blocks(const std::uint8_t* m, std::size_t count, std::uint32_t hibit);
  std::uint32_t r_[5];
  std::uint32_t h_[5];
  std::uint32_t pad_[4];
  std::array<std::uint8_t, 16> buffer_;
  std::size_t buffered_ = 0;
};

}  // namespace interedge::crypto
