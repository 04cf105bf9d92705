// The three slow-path transports must be behaviorally identical; the
// parameterized suite runs the same scenarios over each.
#include "core/channel.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/serial.h"

namespace interedge::core {
namespace {

slowpath_response echo_handler(slowpath_request req) {
  const packet& pkt = *req.pkt;
  slowpath_response resp;
  resp.token = req.token;
  resp.verdict = decision::forward_to(pkt.l3_src + 1);
  resp.cache_inserts.emplace_back(cache_key{pkt.l3_src, 1, 2}, decision::deliver());
  outbound o;
  o.to = 42;
  o.header = pkt.header;
  o.header.service = 7;
  o.payload = pkt.payload;
  resp.sends.push_back(std::move(o));
  return resp;
}

packet make_packet(peer_id l3_src, bytes payload) {
  packet pkt;
  pkt.l3_src = l3_src;
  pkt.header.service = 3;
  pkt.header.connection = 11;
  pkt.header.set_meta_u64(ilp::meta_key::dest_addr, 99);
  pkt.payload = std::move(payload);
  return pkt;
}

enum class channel_kind { inline_call, ring, ipc };

std::unique_ptr<slowpath_channel> make_channel(channel_kind kind, slowpath_handler handler) {
  switch (kind) {
    case channel_kind::inline_call:
      return std::make_unique<inline_channel>(std::move(handler));
    case channel_kind::ring:
      return std::make_unique<ring_channel>(std::move(handler));
    case channel_kind::ipc:
      return std::make_unique<ipc_channel>(std::move(handler));
  }
  return nullptr;
}

slowpath_response poll_blocking(slowpath_channel& ch) {
  for (int spins = 0; spins < 1000000; ++spins) {
    if (auto r = ch.poll()) return std::move(*r);
    std::this_thread::yield();
  }
  ADD_FAILURE() << "channel never produced a response";
  return {};
}

class ChannelSuite : public ::testing::TestWithParam<channel_kind> {};

TEST_P(ChannelSuite, RoundTripPreservesEverything) {
  auto ch = make_channel(GetParam(), echo_handler);
  const packet pkt = make_packet(5, to_bytes("payload-data"));
  ASSERT_TRUE(ch->submit(slowpath_request{.token = 77, .pkt = &pkt}));

  const slowpath_response resp = poll_blocking(*ch);
  EXPECT_EQ(resp.token, 77u);
  EXPECT_EQ(resp.verdict, decision::forward_to(6));
  ASSERT_EQ(resp.cache_inserts.size(), 1u);
  EXPECT_EQ(resp.cache_inserts[0].first, (cache_key{5, 1, 2}));
  ASSERT_EQ(resp.sends.size(), 1u);
  EXPECT_EQ(resp.sends[0].to, 42u);
  EXPECT_EQ(resp.sends[0].header.service, 7u);
  EXPECT_EQ(resp.sends[0].header.connection, 11u);
  EXPECT_EQ(resp.sends[0].header.meta_u64(ilp::meta_key::dest_addr), 99u);
  EXPECT_EQ(resp.sends[0].payload, to_bytes("payload-data"));
}

TEST_P(ChannelSuite, ManyOutstandingRequestsAllComplete) {
  auto ch = make_channel(GetParam(), echo_handler);
  constexpr int kCount = 200;
  const packet pkt = make_packet(1, {});
  int submitted = 0;
  std::set<std::uint64_t> seen;
  while (static_cast<int>(seen.size()) < kCount) {
    while (submitted < kCount) {
      const slowpath_request req{.token = static_cast<std::uint64_t>(submitted), .pkt = &pkt};
      if (!ch->submit(req)) break;  // bounded channel full
      ++submitted;
    }
    if (auto r = ch->poll()) {
      EXPECT_TRUE(seen.insert(r->token).second) << "duplicate token";
    }
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kCount));
}

TEST_P(ChannelSuite, EmptyPayloadAndFields) {
  auto ch = make_channel(GetParam(), [](slowpath_request req) {
    slowpath_response r;
    r.token = req.token;
    r.verdict = decision::drop_packet();
    return r;
  });
  const packet pkt{};
  ASSERT_TRUE(ch->submit(slowpath_request{.token = 1, .pkt = &pkt}));
  const slowpath_response resp = poll_blocking(*ch);
  EXPECT_EQ(resp.verdict.kind, decision::verdict::drop);
  EXPECT_TRUE(resp.cache_inserts.empty());
  EXPECT_TRUE(resp.sends.empty());
}

TEST_P(ChannelSuite, LargePayloadSurvivesTransport) {
  auto ch = make_channel(GetParam(), echo_handler);
  const packet pkt = make_packet(2, bytes(64 * 1024, 0xcd));
  ASSERT_TRUE(ch->submit(slowpath_request{.token = 9, .pkt = &pkt}));
  const slowpath_response resp = poll_blocking(*ch);
  ASSERT_EQ(resp.sends.size(), 1u);
  EXPECT_EQ(resp.sends[0].payload.size(), 64u * 1024);
}

INSTANTIATE_TEST_SUITE_P(AllTransports, ChannelSuite,
                         ::testing::Values(channel_kind::inline_call, channel_kind::ring,
                                           channel_kind::ipc),
                         [](const auto& info) {
                           switch (info.param) {
                             case channel_kind::inline_call: return "Inline";
                             case channel_kind::ring: return "Ring";
                             case channel_kind::ipc: return "Ipc";
                           }
                           return "?";
                         });

TEST(RequestCodec, RoundTrip) {
  const packet pkt = make_packet(17, to_bytes("data"));
  const slowpath_request req{.token = 0xabcdef, .pkt = &pkt};
  packet storage;
  const slowpath_request decoded = slowpath_request::decode(req.encode(), storage);
  EXPECT_EQ(decoded.token, req.token);
  ASSERT_EQ(decoded.pkt, &storage);
  EXPECT_EQ(storage.l3_src, pkt.l3_src);
  EXPECT_EQ(storage.header, pkt.header);
  EXPECT_EQ(storage.payload, pkt.payload);
}

TEST(ResponseCodec, RoundTripAllVerdicts) {
  for (auto kind : {decision::verdict::forward, decision::verdict::deliver_local,
                    decision::verdict::drop}) {
    slowpath_response resp;
    resp.token = 3;
    resp.verdict.kind = kind;
    if (kind == decision::verdict::forward) resp.verdict.next_hops = {1, 2, 3};
    const slowpath_response decoded = slowpath_response::decode(resp.encode());
    EXPECT_EQ(decoded.verdict, resp.verdict);
  }
}

// The inline hop list holds kMaxNextHops. A response that claims more is
// malformed input: decode throws serial_error, nothing else.
TEST(DecisionCodec, MoreThanMaxNextHopsIsSerialError) {
  auto response_with_hops = [](std::size_t hops) {
    writer w;
    w.u64(1);  // token
    w.u16(0);  // annotations
    w.u8(static_cast<std::uint8_t>(decision::verdict::forward));
    w.varint(0);  // ttl
    w.varint(hops);
    for (std::size_t i = 0; i < hops; ++i) w.u64(10 + i);
    w.varint(0);  // cache inserts
    w.varint(0);  // sends
    return w.take();
  };
  EXPECT_EQ(slowpath_response::decode(response_with_hops(kMaxNextHops)).verdict.next_hops.size(),
            kMaxNextHops);
  EXPECT_THROW(slowpath_response::decode(response_with_hops(kMaxNextHops + 1)), serial_error);
}

TEST(RequestCodec, DeadlineRoundTrips) {
  const packet pkt{};
  const slowpath_request req{.token = 1, .deadline_ns = 123456789, .pkt = &pkt};
  packet storage;
  EXPECT_EQ(slowpath_request::decode(req.encode(), storage).deadline_ns, 123456789u);
}

// The inline insert list holds kMaxCacheInserts. A response that claims
// more is malformed input: decode throws serial_error, nothing else.
TEST(DecisionCodec, MoreThanMaxCacheInsertsIsSerialError) {
  auto response_with_inserts = [](std::size_t inserts) {
    writer w;
    w.u64(1);  // token
    w.u16(0);  // annotations
    w.u8(static_cast<std::uint8_t>(decision::verdict::drop));
    w.varint(0);  // ttl
    w.varint(0);  // next hops
    w.varint(inserts);
    for (std::size_t i = 0; i < inserts; ++i) {
      w.u64(i);  // key
      w.u32(1);
      w.u64(2);
      w.u8(static_cast<std::uint8_t>(decision::verdict::deliver_local));
      w.varint(0);
      w.varint(0);
    }
    w.varint(0);  // sends
    return w.take();
  };
  EXPECT_EQ(slowpath_response::decode(response_with_inserts(kMaxCacheInserts)).cache_inserts.size(),
            kMaxCacheInserts);
  EXPECT_THROW(slowpath_response::decode(response_with_inserts(kMaxCacheInserts + 1)),
               serial_error);
}

TEST(DecisionCodec, TtlRoundTrips) {
  using namespace std::chrono_literals;
  slowpath_response resp;
  resp.token = 1;
  decision d = decision::forward_to(9);
  d.ttl = 50ms;
  resp.cache_inserts.emplace_back(cache_key{1, 2, 3}, d);
  const slowpath_response decoded = slowpath_response::decode(resp.encode());
  ASSERT_EQ(decoded.cache_inserts.size(), 1u);
  EXPECT_EQ(decoded.cache_inserts[0].second.ttl, 50ms);
  EXPECT_EQ(decoded.cache_inserts[0].second, d);
}

TEST(SlowpathHub, ExpiresOverdueRequestsWithoutInvokingHandler) {
  manual_clock clk;
  int handled = 0;
  slowpath_hub hub(
      [&handled](slowpath_request req) {
        ++handled;
        slowpath_response r;
        r.token = req.token;
        r.verdict = decision::deliver();
        return r;
      },
      /*shards=*/1);
  hub.set_deadline_clock(&clk);

  clk.advance(std::chrono::milliseconds(100));
  slowpath_request overdue;
  overdue.token = slowpath_hub::token_seed(0) + 1;
  overdue.deadline_ns = 1;  // long past
  ASSERT_TRUE(hub.endpoint(0).submit(overdue));

  slowpath_request fresh;
  fresh.token = slowpath_hub::token_seed(0) + 2;
  fresh.deadline_ns = static_cast<std::uint64_t>(
      (clk.now() + std::chrono::milliseconds(10)).time_since_epoch().count());
  ASSERT_TRUE(hub.endpoint(0).submit(fresh));

  EXPECT_EQ(hub.pump(), 2u);
  EXPECT_EQ(handled, 1);  // only the fresh one reached the handler
  EXPECT_EQ(hub.expired(), 1u);

  // Both tokens come back: the expired one as a synthesized drop, so the
  // submitting shard's in-flight window never leaks.
  std::set<std::uint64_t> tokens;
  decision::verdict expired_verdict{};
  while (auto r = hub.endpoint(0).poll()) {
    if (r->token == overdue.token) expired_verdict = r->verdict.kind;
    tokens.insert(r->token);
  }
  EXPECT_EQ(tokens.size(), 2u);
  EXPECT_EQ(expired_verdict, decision::verdict::drop);
}

TEST(SlowpathHub, NoClockMeansNoExpiry) {
  int handled = 0;
  slowpath_hub hub(
      [&handled](slowpath_request req) {
        ++handled;
        slowpath_response r;
        r.token = req.token;
        return r;
      },
      /*shards=*/1);
  slowpath_request req;
  req.token = slowpath_hub::token_seed(0) + 1;
  req.deadline_ns = 1;
  ASSERT_TRUE(hub.endpoint(0).submit(req));
  hub.pump();
  EXPECT_EQ(handled, 1);
  EXPECT_EQ(hub.expired(), 0u);
}

TEST(RingChannel, BoundedDepthRejectsWhenFull) {
  // A handler that blocks until released lets us fill the request ring.
  std::atomic<bool> release{false};
  ring_channel ch(
      [&release](slowpath_request req) {
        while (!release.load()) std::this_thread::yield();
        slowpath_response r;
        r.token = req.token;
        return r;
      },
      /*depth=*/4);

  int accepted = 0;
  for (int i = 0; i < 100; ++i) {
    slowpath_request req;
    req.token = static_cast<std::uint64_t>(i);
    if (!ch.submit(std::move(req))) break;
    ++accepted;
  }
  EXPECT_LT(accepted, 100);
  EXPECT_GE(accepted, 4);
  release.store(true);
  int drained = 0;
  while (drained < accepted) {
    if (ch.poll()) ++drained;
  }
}

}  // namespace
}  // namespace interedge::core
