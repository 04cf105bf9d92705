#include "crypto/siphash.h"

namespace interedge::crypto {
namespace {
std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}
}  // namespace

siphash_key_words load_key(const siphash_key& key) {
  return {load64(key.data()), load64(key.data() + 8)};
}

std::uint64_t siphash24(const siphash_key& key, const_byte_span data) {
  using detail::sipround;
  const siphash_key_words k = load_key(key);
  std::uint64_t v0 = 0x736f6d6570736575ull ^ k.k0;
  std::uint64_t v1 = 0x646f72616e646f6dull ^ k.k1;
  std::uint64_t v2 = 0x6c7967656e657261ull ^ k.k0;
  std::uint64_t v3 = 0x7465646279746573ull ^ k.k1;

  const std::size_t full = data.size() / 8 * 8;
  for (std::size_t i = 0; i < full; i += 8) {
    const std::uint64_t m = load64(data.data() + i);
    v3 ^= m;
    sipround(v0, v1, v2, v3);
    sipround(v0, v1, v2, v3);
    v0 ^= m;
  }

  std::uint64_t last = static_cast<std::uint64_t>(data.size() & 0xff) << 56;
  for (std::size_t i = full; i < data.size(); ++i) {
    last |= static_cast<std::uint64_t>(data[i]) << (8 * (i - full));
  }
  v3 ^= last;
  sipround(v0, v1, v2, v3);
  sipround(v0, v1, v2, v3);
  v0 ^= last;

  v2 ^= 0xff;
  for (int i = 0; i < 4; ++i) sipround(v0, v1, v2, v3);
  return v0 ^ v1 ^ v2 ^ v3;
}

}  // namespace interedge::crypto
