#include "crypto/poly1305.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "crypto/reference_poly1305.h"

namespace interedge::crypto {
namespace {

// RFC 8439 §2.5.2 test vector.
TEST(Poly1305, Rfc8439Vector) {
  const bytes key = from_hex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  const bytes msg = to_bytes("Cryptographic Forum Research Group");
  const auto tag = poly1305::mac(key.data(), msg);
  EXPECT_EQ(hex(const_byte_span(tag.data(), tag.size())), "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST(Poly1305, EmptyMessage) {
  const bytes key(32, 0x01);
  const auto tag = poly1305::mac(key.data(), {});
  // With r != 0 and empty input the tag equals the pad (s part of the key).
  EXPECT_EQ(hex(const_byte_span(tag.data(), tag.size())), "01010101010101010101010101010101");
}

TEST(Poly1305, IncrementalMatchesOneShot) {
  const bytes key = from_hex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  const bytes msg = to_bytes("Cryptographic Forum Research Group");
  const auto expected = poly1305::mac(key.data(), msg);
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    poly1305 p(key.data());
    p.update(const_byte_span(msg).first(split));
    p.update(const_byte_span(msg).subspan(split));
    EXPECT_EQ(p.finish(), expected) << "split " << split;
  }
}

TEST(Poly1305, DifferentKeysDifferentTags) {
  const bytes key_a(32, 0x11);
  const bytes key_b(32, 0x22);
  const bytes msg = to_bytes("same message");
  EXPECT_NE(poly1305::mac(key_a.data(), msg), poly1305::mac(key_b.data(), msg));
}

TEST(Poly1305, SingleBitFlipChangesTag) {
  const bytes key = from_hex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  bytes msg(48, 0xab);
  const auto tag = poly1305::mac(key.data(), msg);
  msg[17] ^= 0x01;
  EXPECT_NE(poly1305::mac(key.data(), msg), tag);
}

// Edge case from RFC 8439 security considerations: message blocks equal to
// the prime's residue boundaries must reduce correctly.
TEST(Poly1305, AllOnesBlocks) {
  bytes key(32, 0);
  key[0] = 0x02;  // r = 2, s = 0
  const bytes msg(64, 0xff);
  const auto tag = poly1305::mac(key.data(), msg);
  EXPECT_EQ(tag.size(), kPolyTagSize);
  // Deterministic: recompute and compare.
  EXPECT_EQ(poly1305::mac(key.data(), msg), tag);
}

// Both implementations, one-shot, must give `tag_hex`.
void expect_both(const bytes& key, const bytes& msg, const std::string& tag_hex,
                 const std::string& what) {
  const auto tag = poly1305::mac(key.data(), msg);
  const auto ref = reference_poly1305::mac(key.data(), msg);
  EXPECT_EQ(hex(const_byte_span(tag.data(), tag.size())), tag_hex) << what;
  EXPECT_EQ(hex(const_byte_span(ref.data(), ref.size())), tag_hex) << what << " (reference)";
}

// RFC 8439 Appendix A.3: the eleven Poly1305 vectors, several of which
// aim at the reduction's corner cases (a partially reduced result that
// is not fully reduced, s overflowing 2^128, a final value of exactly
// 2^130 - 5 or 2^130 - 6, 131-bit intermediates).
TEST(Poly1305, Rfc8439AppendixA3Vectors) {
  const bytes ietf = to_bytes(
      "Any submission to the IETF intended by the Contributor for publication as all or part of "
      "an IETF Internet-Draft or RFC and any statement made within the context of an IETF "
      "activity is considered an \"IETF Contribution\". Such statements include oral "
      "statements in IETF sessions, as well as written and electronic communications made at "
      "any time or place, which are addressed to");
  const bytes jabberwocky = to_bytes(
      "'Twas brillig, and the slithy toves\nDid gyre and gimble in the wabe:\nAll mimsy were "
      "the borogoves,\nAnd the mome raths outgrabe.");
  const std::string zeros16(32, '0');
  struct vec {
    std::string key, msg_hex;
    const bytes* msg;
    std::string tag;
  };
  const vec vectors[] = {
      {std::string(64, '0'), std::string(128, '0'), nullptr, zeros16},
      {zeros16 + "36e5f6b5c5e06070f0efca96227a863e", "", &ietf,
       "36e5f6b5c5e06070f0efca96227a863e"},
      {"36e5f6b5c5e06070f0efca96227a863e" + zeros16, "", &ietf,
       "f3477e7cd95417af89a6b8794c310cf0"},
      {"1c9240a5eb55d38af333888604f6b5f0473917c1402b80099dca5cbc207075c0", "", &jabberwocky,
       "4541669a7eaaee61e708dc7cbcc5eb62"},
      {"02" + std::string(62, '0'), std::string(32, 'f'), nullptr,
       "03000000000000000000000000000000"},
      {"02" + std::string(30, '0') + std::string(32, 'f'), "02" + std::string(30, '0'), nullptr,
       "03000000000000000000000000000000"},
      {"01" + std::string(62, '0'),
       std::string(32, 'f') + "f0" + std::string(30, 'f') + "11" + std::string(30, '0'), nullptr,
       "05000000000000000000000000000000"},
      {"01" + std::string(62, '0'),
       std::string(32, 'f') + "fbfefefefefefefefefefefefefefefe" +
           "01010101010101010101010101010101",
       nullptr, zeros16},
      {"02" + std::string(62, '0'), "fd" + std::string(30, 'f'), nullptr,
       "faffffffffffffffffffffffffffffff"},
      {"01000000000000000400000000000000" + zeros16,
       "e33594d7505e43b90000000000000000" "3394d7505e4379cd0100000000000000" + zeros16 +
           "01000000000000000000000000000000",
       nullptr, "14000000000000005500000000000000"},
      {"01000000000000000400000000000000" + zeros16,
       "e33594d7505e43b90000000000000000" "3394d7505e4379cd0100000000000000" + zeros16,
       nullptr, "13000000000000000000000000000000"},
  };
  int n = 0;
  for (const vec& v : vectors) {
    ++n;
    const bytes msg = v.msg != nullptr ? *v.msg : from_hex(v.msg_hex);
    expect_both(from_hex(v.key), msg, v.tag, "A.3 #" + std::to_string(n));
  }
}

// Reduction edges with r = 1, where the accumulator is the sum of the
// padded blocks: two full blocks leave h at 2^130 - 6 (just below p),
// exactly p, p + 1 and p + 3. With r at its clamped maximum, all-0xff
// blocks drive every limb to its largest product.
TEST(Poly1305, ReductionEdges) {
  const bytes r_one = from_hex("01" + std::string(62, '0'));
  const std::pair<const char*, const char*> around_p[] = {
      {"fb", "faffffffffffffffffffffffffffffff"},
      {"fc", "00000000000000000000000000000000"},
      {"fd", "01000000000000000000000000000000"},
      {"ff", "03000000000000000000000000000000"},
  };
  for (const auto& [last, tag] : around_p) {
    const bytes msg = from_hex(std::string(32, 'f') + last + std::string(30, 'f'));
    expect_both(r_one, msg, tag, std::string("second block ") + last);
  }
  const bytes r_max = from_hex(std::string(32, 'f') + std::string(32, '0'));
  expect_both(r_max, bytes(64, 0xff), "910fe32bc15fa8d7bca8efe4c7e37eb1", "r max, 64 B");
  expect_both(r_max, bytes(63, 0xff), "910f0bfaca5fd0a5c6a817b3d1e3a687", "r max, 63 B");
  // r and s at their maxima, all-0xff messages of every length up to 300.
  const bytes all_max(32, 0xff);
  for (std::size_t len = 0; len <= 300; ++len) {
    const bytes msg(len, 0xff);
    EXPECT_EQ(poly1305::mac(all_max.data(), msg), reference_poly1305::mac(all_max.data(), msg))
        << "len=" << len;
  }
}

// 100 000 seeded (key, 0..300 B message) pairs: the 64-bit-limb tags equal
// the 26-bit reference's, with the message fed to each in up to three
// updates split at random points.
TEST(Poly1305, MatchesReferenceOnRandomInputs) {
  std::mt19937_64 rng(0x9017305);
  bytes key(kPolyKeySize);
  bytes msg;
  for (int trial = 0; trial < 100000; ++trial) {
    for (auto& b : key) b = static_cast<std::uint8_t>(rng());
    msg.resize(rng() % 301);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng());
    std::size_t a = msg.empty() ? 0 : rng() % (msg.size() + 1);
    std::size_t b = msg.empty() ? 0 : rng() % (msg.size() + 1);
    if (a > b) std::swap(a, b);
    const const_byte_span m(msg);
    poly1305 mine(key.data());
    mine.update(m.first(a));
    mine.update(m.subspan(a, b - a));
    mine.update(m.subspan(b));
    reference_poly1305 ref(key.data());
    const std::size_t c = msg.empty() ? 0 : rng() % (msg.size() + 1);
    ref.update(m.first(c));
    ref.update(m.subspan(c));
    ASSERT_EQ(mine.finish(), ref.finish()) << "trial " << trial << " len=" << msg.size();
  }
}

}  // namespace
}  // namespace interedge::crypto
