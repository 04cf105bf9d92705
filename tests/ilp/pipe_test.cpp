#include "ilp/pipe.h"

#include <gtest/gtest.h>

#include <string>

namespace interedge::ilp {
namespace {

struct pipe_pair {
  pipe initiator;
  pipe responder;
};

pipe_pair make_pair() {
  const bytes secret(32, 0x5a);
  return {pipe(secret, /*local_spi=*/100, /*remote_spi=*/200, /*initiator=*/true),
          pipe(secret, /*local_spi=*/200, /*remote_spi=*/100, /*initiator=*/false)};
}

ilp_header sample_header() {
  ilp_header h;
  h.service = svc::delivery;
  h.connection = 777;
  h.set_meta_u64(meta_key::dest_addr, 42);
  return h;
}

TEST(Pipe, SealOpenRoundTrip) {
  auto [a, b] = make_pair();
  const bytes wire = a.seal(sample_header(), to_bytes("payload"));
  ASSERT_EQ(static_cast<msg_kind>(wire[0]), msg_kind::data);
  const auto opened = b.open(const_byte_span(wire).subspan(1));
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(opened->first, sample_header());
  EXPECT_EQ(to_string(opened->second), "payload");
}

TEST(Pipe, BothDirectionsIndependent) {
  auto [a, b] = make_pair();
  const bytes wire_ab = a.seal(sample_header(), to_bytes("a->b"));
  const bytes wire_ba = b.seal(sample_header(), to_bytes("b->a"));
  EXPECT_TRUE(b.open(const_byte_span(wire_ab).subspan(1)).has_value());
  EXPECT_TRUE(a.open(const_byte_span(wire_ba).subspan(1)).has_value());
  // Cross direction must fail (different directional keys).
  EXPECT_FALSE(a.open(const_byte_span(wire_ab).subspan(1)).has_value());
}

TEST(Pipe, PayloadNotEncryptedHeaderIs) {
  auto [a, b] = make_pair();
  (void)b;
  const bytes payload = to_bytes("cleartext-payload-xyzzy");
  const bytes wire = a.seal(sample_header(), payload);
  // Payload appears verbatim in the wire image (endpoint-encrypted in real
  // deployments; the pipe does not touch it).
  const std::string wire_str(wire.begin(), wire.end());
  EXPECT_NE(wire_str.find("cleartext-payload-xyzzy"), std::string::npos);
  // The header's metadata must NOT appear in clear.
  ilp_header h = sample_header();
  h.set_meta_str(meta_key::control_op, "secret-operation-name");
  const bytes wire2 = a.seal(h, payload);
  const std::string wire2_str(wire2.begin(), wire2.end());
  EXPECT_EQ(wire2_str.find("secret-operation-name"), std::string::npos);
}

TEST(Pipe, HeaderPayloadSpliceDetected) {
  auto [a, b] = make_pair();
  const bytes wire1 = a.seal(sample_header(), to_bytes("short"));
  // Graft a longer payload onto wire1's sealed header.
  bytes spliced(wire1.begin(), wire1.end());
  spliced.insert(spliced.end(), 10, 'X');
  EXPECT_FALSE(b.open(const_byte_span(spliced).subspan(1)).has_value());
  EXPECT_EQ(b.stats().rejected, 1u);
}

TEST(Pipe, TamperedHeaderRejected) {
  auto [a, b] = make_pair();
  bytes wire = a.seal(sample_header(), to_bytes("p"));
  wire[3] ^= 0x01;  // inside the sealed header region
  EXPECT_FALSE(b.open(const_byte_span(wire).subspan(1)).has_value());
}

TEST(Pipe, OutOfOrderDelivery) {
  auto [a, b] = make_pair();
  std::vector<bytes> wires;
  for (int i = 0; i < 5; ++i) {
    ilp_header h = sample_header();
    h.connection = static_cast<connection_id>(i);
    wires.push_back(a.seal(h, to_bytes(std::string("m").append(std::to_string(i)))));
  }
  // Deliver in reverse.
  for (int i = 4; i >= 0; --i) {
    const auto opened = b.open(const_byte_span(wires[i]).subspan(1));
    ASSERT_TRUE(opened.has_value()) << i;
    EXPECT_EQ(opened->first.connection, static_cast<connection_id>(i));
  }
}

TEST(Pipe, RekeyKeepsPipeUsable) {
  auto [a, b] = make_pair();
  const bytes before = a.seal(sample_header(), to_bytes("before"));
  a.rotate_tx();
  b.rotate_rx();
  const bytes after = a.seal(sample_header(), to_bytes("after"));
  // Both epochs decrypt during the transition window.
  EXPECT_TRUE(b.open(const_byte_span(before).subspan(1)).has_value());
  EXPECT_TRUE(b.open(const_byte_span(after).subspan(1)).has_value());
  EXPECT_EQ(a.stats().rekeys, 1u);
  EXPECT_EQ(a.tx_epoch(), 1u);
}

TEST(Pipe, EmptyPayload) {
  auto [a, b] = make_pair();
  const auto opened = b.open(const_byte_span(a.seal(sample_header(), {})).subspan(1));
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->second.empty());
}

TEST(Pipe, GarbageInputRejectedNotThrown) {
  auto [a, b] = make_pair();
  (void)a;
  EXPECT_FALSE(b.open(to_bytes("complete garbage")).has_value());
  EXPECT_FALSE(b.open({}).has_value());
}

TEST(Pipe, SealIntoMatchesSeal) {
  auto [a, a2] = make_pair();
  pipe b(bytes(32, 0x5a), 100, 200, true);  // same keys/sequence as `a`
  (void)a2;
  const bytes wire = a.seal(sample_header(), to_bytes("payload"));
  bytes wire2;
  b.seal_into(sample_header(), to_bytes("payload"), wire2);
  EXPECT_EQ(wire2, wire);
}

TEST(Pipe, DecryptBatchRoundTrip) {
  auto [a, b] = make_pair();
  // Decrypted in place: the bodies are the test's own copies of the wire.
  std::vector<bytes> wires;
  std::vector<byte_span> bodies;
  for (int i = 0; i < 6; ++i) {
    ilp_header h = sample_header();
    h.connection = static_cast<connection_id>(i);
    wires.push_back(a.seal(h, to_bytes(std::string("m").append(std::to_string(i)))));
  }
  for (bytes& w : wires) bodies.push_back(byte_span(w).subspan(1));

  std::vector<std::optional<opened_packet>> out;
  EXPECT_EQ(b.decrypt_batch_mut(bodies, out), 6u);
  ASSERT_EQ(out.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(out[i].has_value()) << i;
    EXPECT_EQ(out[i]->header.connection, static_cast<connection_id>(i));
    EXPECT_EQ(to_string(out[i]->payload), std::string("m").append(std::to_string(i)));
  }
  EXPECT_EQ(b.stats().opened, 6u);
}

TEST(Pipe, DecryptBatchSkipsBadPacket) {
  auto [a, b] = make_pair();
  std::vector<bytes> wires;
  for (int i = 0; i < 3; ++i) {
    wires.push_back(a.seal(sample_header(), to_bytes("ok")));
  }
  wires[1][4] ^= 0x01;  // corrupt the middle packet's sealed header
  std::vector<byte_span> bodies;
  for (bytes& w : wires) bodies.push_back(byte_span(w).subspan(1));

  std::vector<std::optional<opened_packet>> out;
  EXPECT_EQ(b.decrypt_batch_mut(bodies, out), 2u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_TRUE(out[0].has_value());
  EXPECT_FALSE(out[1].has_value());
  EXPECT_TRUE(out[2].has_value());
  EXPECT_EQ(b.stats().rejected, 1u);
}

TEST(Pipe, StatsCountSealedAndOpened) {
  auto [a, b] = make_pair();
  for (int i = 0; i < 3; ++i) {
    const bytes w = a.seal(sample_header(), {});
    b.open(const_byte_span(w).subspan(1));
  }
  EXPECT_EQ(a.stats().sealed, 3u);
  EXPECT_EQ(b.stats().opened, 3u);
}

}  // namespace
}  // namespace interedge::ilp
