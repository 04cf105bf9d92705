#include "core/pipe_terminus.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

namespace interedge::core {
namespace {

// Hands owned packets to the terminus as one batch of packet_views over
// their payloads; the packets outlive the call.
void handle_batch(pipe_terminus& t, std::span<packet> pkts) {
  std::vector<packet_view> views;
  for (packet& p : pkts) views.push_back(packet_view{p.l3_src, p.header, p.payload});
  t.handle_batch(std::span<packet_view>(views));
}

// One packet is a batch of one.
void handle(pipe_terminus& t, packet p) { handle_batch(t, std::span(&p, 1)); }

struct forwarded_packet {
  peer_id to;
  ilp::ilp_header header;
  bytes payload;
};

class terminus_fixture : public ::testing::Test {
 protected:
  terminus_fixture()
      : cache_(16),
        channel_([this](slowpath_request req) { return handler_(std::move(req)); }),
        terminus_(
            cache_, channel_,
            [this](peer_id to, const ilp::ilp_header& h, const_byte_span p) {
              forwarded_.push_back({to, h, bytes(p.begin(), p.end())});
            },
            [this] { burst_ends_.push_back(forwarded_.size()); }) {
    // Default handler: forward to hop 50 and install a cache entry.
    handler_ = [](slowpath_request req) {
      const packet& pkt = *req.pkt;
      slowpath_response resp;
      resp.token = req.token;
      resp.verdict = decision::forward_to(50);
      resp.cache_inserts.emplace_back(
          cache_key{pkt.l3_src, pkt.header.service, pkt.header.connection},
          decision::forward_to(50));
      return resp;
    };
  }

  packet make_packet(ilp::connection_id conn = 1, std::uint16_t flags = 0) {
    packet p;
    p.l3_src = 7;
    p.header.service = ilp::svc::delivery;
    p.header.connection = conn;
    p.header.flags = flags;
    p.payload = to_bytes("payload");
    return p;
  }

  decision_cache cache_;
  slowpath_handler handler_;
  inline_channel channel_;
  pipe_terminus terminus_;
  std::vector<forwarded_packet> forwarded_;
  std::vector<std::size_t> burst_ends_;  // forwarded_.size() at each burst end
};

TEST_F(terminus_fixture, FirstPacketSlowPathSecondFastPath) {
  handle(terminus_, make_packet());
  EXPECT_EQ(terminus_.stats().slow_path, 1u);
  EXPECT_EQ(terminus_.stats().fast_path, 0u);

  handle(terminus_, make_packet());
  EXPECT_EQ(terminus_.stats().slow_path, 1u);
  EXPECT_EQ(terminus_.stats().fast_path, 1u);

  ASSERT_EQ(forwarded_.size(), 2u);
  EXPECT_EQ(forwarded_[0].to, 50u);
  EXPECT_EQ(forwarded_[1].to, 50u);
}

// Burst ends bound the life of every forwarded payload view. A batch of
// two hits and two misses, where the module answers each miss with three
// sends plus a forward verdict: the hits leave, then a burst end; each
// completion's sends and verdict forward leave, then a burst end, before
// the next completion starts.
TEST_F(terminus_fixture, BurstEndsFollowTheHitsAndEachCompletion) {
  handle(terminus_, make_packet(1));
  handle(terminus_, make_packet(2));  // conns 1 and 2 are now cached
  forwarded_.clear();
  burst_ends_.clear();
  handler_ = [](slowpath_request req) {
    slowpath_response resp;
    resp.token = req.token;
    resp.verdict = decision::forward_to(50);
    for (peer_id to : {60, 61, 62}) {
      outbound o;
      o.to = to;
      o.header.connection = req.pkt->header.connection;
      o.payload = to_bytes("reply");
      resp.sends.push_back(std::move(o));
    }
    return resp;
  };
  std::vector<packet> batch = {make_packet(1), make_packet(10), make_packet(2), make_packet(11)};
  handle_batch(terminus_, batch);

  const std::vector<std::pair<peer_id, ilp::connection_id>> expected = {
      {50, 1},  {50, 2},                                // the hits
      {60, 10}, {61, 10}, {62, 10}, {50, 10},           // the first completion
      {60, 11}, {61, 11}, {62, 11}, {50, 11}};          // the second
  ASSERT_EQ(forwarded_.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(forwarded_[i].to, expected[i].first) << i;
    EXPECT_EQ(forwarded_[i].header.connection, expected[i].second) << i;
  }
  EXPECT_EQ(burst_ends_, (std::vector<std::size_t>{2, 6, 10}));
}

TEST_F(terminus_fixture, PayloadForwardedByteIdentical) {
  handle(terminus_, make_packet());
  ASSERT_EQ(forwarded_.size(), 1u);
  EXPECT_EQ(forwarded_[0].payload, to_bytes("payload"));
  EXPECT_EQ(forwarded_[0].header.connection, 1u);
}

TEST_F(terminus_fixture, ControlPacketsAlwaysSlowPath) {
  handle(terminus_, make_packet(1));
  handle(terminus_, make_packet(1, ilp::kFlagControl));  // would hit cache otherwise
  EXPECT_EQ(terminus_.stats().slow_path, 2u);
}

TEST_F(terminus_fixture, DropVerdictCounted) {
  handler_ = [](slowpath_request req) {
    slowpath_response resp;
    resp.token = req.token;
    resp.verdict = decision::drop_packet();
    return resp;
  };
  handle(terminus_, make_packet());
  EXPECT_EQ(terminus_.stats().dropped, 1u);
  EXPECT_TRUE(forwarded_.empty());
}

TEST_F(terminus_fixture, DeliverVerdictCounted) {
  handler_ = [](slowpath_request req) {
    slowpath_response resp;
    resp.token = req.token;
    resp.verdict = decision::deliver();
    return resp;
  };
  handle(terminus_, make_packet());
  EXPECT_EQ(terminus_.stats().delivered, 1u);
}

TEST_F(terminus_fixture, MultiDestinationForwardsCopies) {
  // "the decision can specify multiple forwarding destinations, in which
  // case a copy of the packet is forwarded to each destination" (§4)
  handler_ = [](slowpath_request req) {
    slowpath_response resp;
    resp.token = req.token;
    resp.verdict = decision::forward_all({10, 11, 12});
    return resp;
  };
  handle(terminus_, make_packet());
  ASSERT_EQ(forwarded_.size(), 3u);
  EXPECT_EQ(forwarded_[0].to, 10u);
  EXPECT_EQ(forwarded_[2].to, 12u);
  EXPECT_EQ(terminus_.stats().forwarded, 3u);
}

TEST_F(terminus_fixture, ServiceSendsEmittedBeforeVerdict) {
  handler_ = [](slowpath_request req) {
    slowpath_response resp;
    resp.token = req.token;
    resp.verdict = decision::deliver();
    outbound o;
    o.to = 99;
    o.header.service = 5;
    o.payload = to_bytes("control-reply");
    resp.sends.push_back(std::move(o));
    return resp;
  };
  handle(terminus_, make_packet());
  ASSERT_EQ(forwarded_.size(), 1u);
  EXPECT_EQ(forwarded_[0].to, 99u);
  EXPECT_EQ(forwarded_[0].payload, to_bytes("control-reply"));
}

TEST_F(terminus_fixture, DifferentConnectionsDifferentCacheEntries) {
  handle(terminus_, make_packet(1));
  handle(terminus_, make_packet(2));
  EXPECT_EQ(terminus_.stats().slow_path, 2u);
  EXPECT_EQ(cache_.size(), 2u);
}

TEST_F(terminus_fixture, EvictedEntryFallsBackToSlowPath) {
  // Fill the cache far past capacity; earlier connections get evicted and
  // their packets must take the slow path again — correctness preserved.
  for (ilp::connection_id c = 0; c < 100; ++c) handle(terminus_, make_packet(c));
  const auto slow_before = terminus_.stats().slow_path;
  handle(terminus_, make_packet(0));  // long evicted
  EXPECT_EQ(terminus_.stats().slow_path, slow_before + 1);
  ASSERT_EQ(forwarded_.size(), 101u);  // every packet still forwarded
}

TEST_F(terminus_fixture, StatsReceivedCountsAll) {
  for (int i = 0; i < 5; ++i) handle(terminus_, make_packet());
  EXPECT_EQ(terminus_.stats().received, 5u);
}

TEST_F(terminus_fixture, BatchSameFlowPaysOneCacheLookup) {
  handle(terminus_, make_packet());  // install the cache entry
  const auto hits_before = cache_.stats().hits;

  std::vector<packet> batch;
  for (int i = 0; i < 8; ++i) batch.push_back(make_packet());
  handle_batch(terminus_, batch);

  // One lookup for the run; the other 7 packets ride the memo.
  EXPECT_EQ(cache_.stats().hits, hits_before + 1);
  EXPECT_EQ(terminus_.stats().fast_path, 8u);
  EXPECT_EQ(forwarded_.size(), 9u);  // every packet still forwarded
}

TEST_F(terminus_fixture, BatchColdFlowStillResolvedViaSlowPath) {
  // A cold batch defers the slow-path drain to the end, so every packet of
  // the burst goes to the service module — and every one is still forwarded.
  std::vector<packet> batch;
  for (int i = 0; i < 4; ++i) batch.push_back(make_packet());
  handle_batch(terminus_, batch);
  EXPECT_EQ(terminus_.stats().slow_path, 4u);
  EXPECT_EQ(forwarded_.size(), 4u);
  // The drain installed the decision: the next batch is pure fast path.
  std::vector<packet> batch2;
  for (int i = 0; i < 4; ++i) batch2.push_back(make_packet());
  handle_batch(terminus_, batch2);
  EXPECT_EQ(terminus_.stats().slow_path, 4u);
  EXPECT_EQ(terminus_.stats().fast_path, 4u);
}

TEST_F(terminus_fixture, BatchMixedWarmFlowsAllFastPath) {
  handle(terminus_, make_packet(1));
  handle(terminus_, make_packet(2));
  std::vector<packet> batch;
  for (int i = 0; i < 6; ++i) {
    batch.push_back(make_packet(static_cast<ilp::connection_id>(1 + i % 2)));
  }
  handle_batch(terminus_, batch);
  EXPECT_EQ(terminus_.stats().fast_path, 6u);
  EXPECT_EQ(forwarded_.size(), 2u + 6u);
}

TEST_F(terminus_fixture, BatchControlPacketsBypassMemo) {
  handle(terminus_, make_packet(1));  // warm the flow
  std::vector<packet> batch;
  batch.push_back(make_packet(1));                      // cache hit, memo set
  batch.push_back(make_packet(1));                      // memo hit
  batch.push_back(make_packet(1, ilp::kFlagControl));   // must not use memo
  handle_batch(terminus_, batch);
  EXPECT_EQ(terminus_.stats().slow_path, 2u);  // initial cold packet + control
  EXPECT_EQ(terminus_.stats().fast_path, 2u);
}

TEST_F(terminus_fixture, BatchMatchesPerPacketBehavior) {
  // The batched path must produce the same forwards in the same order as
  // handling each packet as a batch of one.
  std::vector<packet> batch;
  for (int i = 0; i < 5; ++i) batch.push_back(make_packet(static_cast<ilp::connection_id>(i)));
  handle_batch(terminus_, batch);
  const auto batched = forwarded_;
  forwarded_.clear();

  for (int i = 0; i < 5; ++i) handle(terminus_, make_packet(static_cast<ilp::connection_id>(i)));
  ASSERT_EQ(forwarded_.size(), batched.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(forwarded_[i].to, batched[i].to);
    EXPECT_EQ(forwarded_[i].header.connection, batched[i].header.connection);
    EXPECT_EQ(forwarded_[i].payload, batched[i].payload);
  }
}

// ---- load shedding and deadlines (DESIGN.md §10) ------------------------

using namespace std::chrono_literals;

// Accepts every request but never responds — a wedged slow path.
class black_hole_channel final : public slowpath_channel {
 public:
  bool submit(slowpath_request req) override {
    accepted.push_back(std::move(req));
    return true;
  }
  std::optional<slowpath_response> poll() override { return std::nullopt; }
  std::vector<slowpath_request> accepted;
};

// Rejects every submit — a permanently full channel.
class full_channel final : public slowpath_channel {
 public:
  bool submit(slowpath_request) override {
    ++attempts;
    return false;
  }
  std::optional<slowpath_response> poll() override { return std::nullopt; }
  std::size_t attempts = 0;
};

class shed_fixture : public ::testing::Test {
 protected:
  shed_fixture()
      : cache_(64), terminus_(cache_, channel_, [this](peer_id, const ilp::ilp_header&,
                                                       const_byte_span) { ++forwards_; }) {}

  packet make_packet(ilp::connection_id conn, std::uint16_t flags = 0) {
    packet p;
    p.l3_src = 7;
    p.header.service = ilp::svc::delivery;
    p.header.connection = conn;
    p.header.flags = flags;
    p.payload = to_bytes("x");
    return p;
  }

  manual_clock clk_;
  decision_cache cache_;
  black_hole_channel channel_;
  pipe_terminus terminus_;
  int forwards_ = 0;
};

TEST_F(shed_fixture, ShedsPastHighWaterInsteadOfBlocking) {
  terminus_.set_slowpath_policy({.clk = &clk_, .high_water = 4, .shed_ttl = 50ms});
  cache_.set_clock(&clk_);
  for (ilp::connection_id c = 0; c < 10; ++c) handle(terminus_, make_packet(c));
  // 4 in flight; the other 6 shed to the default (drop) verdict.
  EXPECT_EQ(terminus_.in_flight(), 4u);
  EXPECT_EQ(terminus_.stats().shed, 6u);
  EXPECT_EQ(terminus_.stats().dropped, 6u);  // fail closed
  EXPECT_EQ(channel_.accepted.size(), 4u);
}

TEST_F(shed_fixture, ShedVerdictIsTemporaryCacheEntry) {
  terminus_.set_slowpath_policy({.clk = &clk_, .high_water = 1, .shed_ttl = 50ms});
  cache_.set_clock(&clk_);
  handle(terminus_, make_packet(1));  // occupies the slow path
  handle(terminus_, make_packet(2));  // shed, installs TTL'd drop
  handle(terminus_, make_packet(2));  // fast-path hit on the shed entry
  EXPECT_EQ(terminus_.stats().shed, 1u);
  EXPECT_EQ(terminus_.stats().fast_path, 1u);

  // After the TTL the flow returns to the slow path (which has recovered
  // here only in the sense that the entry is gone — it sheds again).
  clk_.advance(60ms);
  handle(terminus_, make_packet(2));
  EXPECT_EQ(terminus_.stats().shed, 2u);
}

TEST_F(shed_fixture, ShedVerdictPerServicePolicyCanPass) {
  terminus_.set_slowpath_policy({.clk = &clk_, .high_water = 1, .shed_ttl = 50ms});
  cache_.set_clock(&clk_);
  terminus_.set_shed_verdict(ilp::svc::delivery, decision::forward_to(50));
  handle(terminus_, make_packet(1));  // in flight
  handle(terminus_, make_packet(2));  // shed — but delivery sheds to pass
  EXPECT_EQ(terminus_.stats().shed, 1u);
  EXPECT_EQ(forwards_, 1);
  EXPECT_EQ(terminus_.stats().dropped, 0u);
}

TEST_F(shed_fixture, ControlPacketsNeverShed) {
  terminus_.set_slowpath_policy({.clk = &clk_, .high_water = 1, .shed_ttl = 50ms});
  handle(terminus_, make_packet(1));
  handle(terminus_, make_packet(2, ilp::kFlagControl));
  EXPECT_EQ(terminus_.stats().shed, 0u);
  EXPECT_EQ(channel_.accepted.size(), 2u);
}

TEST_F(shed_fixture, BatchShedsAndMemoAbsorbsBurst) {
  terminus_.set_slowpath_policy({.clk = &clk_, .high_water = 1, .shed_ttl = 50ms});
  cache_.set_clock(&clk_);
  std::vector<packet> batch;
  batch.push_back(make_packet(1));                       // takes the slow-path slot
  for (int i = 0; i < 5; ++i) batch.push_back(make_packet(2));  // one shed + memo hits
  handle_batch(terminus_, batch);
  EXPECT_EQ(terminus_.stats().shed, 1u);
  EXPECT_EQ(terminus_.stats().fast_path, 4u);  // rest of the burst rides the memo
}

TEST_F(shed_fixture, DeadlineStampedIntoRequests) {
  terminus_.set_slowpath_policy({.clk = &clk_, .deadline = 5ms});
  clk_.advance(100ms);
  handle(terminus_, make_packet(1));
  ASSERT_EQ(channel_.accepted.size(), 1u);
  EXPECT_EQ(channel_.accepted[0].deadline_ns,
            static_cast<std::uint64_t>((clk_.now() + 5ms).time_since_epoch().count()));
}

TEST_F(shed_fixture, NoPolicyMeansNoDeadlineNoShedding) {
  for (ilp::connection_id c = 0; c < 100; ++c) handle(terminus_, make_packet(c));
  EXPECT_EQ(terminus_.stats().shed, 0u);
  EXPECT_EQ(terminus_.in_flight(), 100u);
  EXPECT_EQ(channel_.accepted[0].deadline_ns, 0u);
  // The pending slots grew past every earlier request without moving one:
  // each request still points at its own packet.
  for (ilp::connection_id c = 0; c < 100; ++c) {
    EXPECT_EQ(channel_.accepted[c].pkt->header.connection, c);
    EXPECT_EQ(channel_.accepted[c].pkt->payload, to_bytes("x"));
  }
}

// Answers only when the test says so, with whatever token it is given.
class scripted_channel final : public slowpath_channel {
 public:
  bool submit(slowpath_request req) override {
    accepted.push_back(req);
    return true;
  }
  std::optional<slowpath_response> poll() override {
    if (ready.empty()) return std::nullopt;
    slowpath_response r = ready.front();
    ready.erase(ready.begin());
    return r;
  }
  void respond(std::uint64_t token) {
    slowpath_response r;
    r.token = token;
    r.verdict = decision::forward_to(50);
    ready.push_back(r);
  }
  std::vector<slowpath_request> accepted;
  std::vector<slowpath_response> ready;
};

TEST(TerminusTokens, UnknownAndCompletedTokensAreIgnored) {
  decision_cache cache(16);
  scripted_channel channel;
  int forwards = 0;
  pipe_terminus terminus(cache, channel,
                         [&](peer_id, const ilp::ilp_header&, const_byte_span) { ++forwards; });
  auto send = [&](ilp::connection_id conn) {
    packet p;
    p.l3_src = 7;
    p.header.service = ilp::svc::delivery;
    p.header.connection = conn;
    handle(terminus, p);
  };
  for (ilp::connection_id c = 1; c <= 3; ++c) send(c);
  ASSERT_EQ(terminus.in_flight(), 3u);
  ASSERT_EQ(channel.accepted.size(), 3u);
  const std::uint64_t first = channel.accepted[0].token;

  channel.respond(0);                                 // never issued
  channel.respond(first ^ (std::uint64_t{1} << 30));  // the right slot, another claim
  channel.respond(first + 1000);                      // a slot that does not exist
  channel.respond(first);
  channel.respond(first);  // a duplicate of a completed response
  EXPECT_EQ(terminus.pump(), 5u);
  EXPECT_EQ(terminus.in_flight(), 2u);
  EXPECT_EQ(forwards, 1);

  // The next packet reuses the freed slot under a new token; the old token
  // no longer completes anything.
  send(4);
  ASSERT_EQ(channel.accepted.size(), 4u);
  EXPECT_NE(channel.accepted[3].token, first);
  EXPECT_EQ(channel.accepted[3].pkt, channel.accepted[0].pkt);
  channel.respond(first);
  terminus.pump();
  EXPECT_EQ(terminus.in_flight(), 3u);
  EXPECT_EQ(forwards, 1);

  for (std::size_t i = 1; i < 4; ++i) channel.respond(channel.accepted[i].token);
  terminus.pump();
  EXPECT_EQ(terminus.in_flight(), 0u);
  EXPECT_FALSE(terminus.busy());
  EXPECT_EQ(forwards, 4);
  EXPECT_EQ(terminus.stats().forwarded, 4u);
}

TEST(ShedBoundedSubmit, FullChannelShedsAfterRetryBudget) {
  manual_clock clk;
  decision_cache cache(16);
  cache.set_clock(&clk);
  full_channel channel;
  int forwards = 0;
  pipe_terminus terminus(cache, channel,
                         [&](peer_id, const ilp::ilp_header&, const_byte_span) { ++forwards; });
  terminus.set_slowpath_policy({.clk = &clk, .high_water = 8, .submit_retries = 5});

  packet p;
  p.l3_src = 7;
  p.header.service = ilp::svc::delivery;
  p.header.connection = 1;
  handle(terminus, p);  // channel never accepts: retries then sheds
  EXPECT_EQ(channel.attempts, 5u);
  EXPECT_EQ(terminus.stats().shed, 1u);
  EXPECT_EQ(terminus.stats().backpressure, 5u);
  EXPECT_EQ(terminus.in_flight(), 0u);
}

// A miss that sheds after its failed submits forwards from its pending
// slot, and the next miss of the batch re-claims that slot: the burst
// ends before the slot is released, while the forwarded view still reads
// the first packet's bytes.
TEST(ShedBoundedSubmit, BurstEndsBeforeTheShedSlotIsReleased) {
  manual_clock clk;
  decision_cache cache(16);
  cache.set_clock(&clk);
  full_channel channel;
  std::vector<const_byte_span> views;  // held until the burst end, as a queue would
  std::vector<bytes> sent;
  std::vector<std::size_t> burst_ends;
  pipe_terminus terminus(
      cache, channel,
      [&](peer_id, const ilp::ilp_header&, const_byte_span payload) { views.push_back(payload); },
      [&] {
        for (const_byte_span v : views) sent.emplace_back(v.begin(), v.end());
        views.clear();
        burst_ends.push_back(sent.size());
      });
  terminus.set_slowpath_policy({.clk = &clk, .high_water = 8, .submit_retries = 2});
  terminus.set_shed_verdict(ilp::svc::delivery, decision::forward_to(9));

  std::vector<packet> batch(2);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i].l3_src = 7;
    batch[i].header.service = ilp::svc::delivery;
    batch[i].header.connection = 1 + i;
    batch[i].payload = to_bytes(i == 0 ? "first" : "second");
  }
  handle_batch(terminus, batch);
  EXPECT_EQ(terminus.stats().shed, 2u);
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(sent[0], to_bytes("first"));
  EXPECT_EQ(sent[1], to_bytes("second"));
  EXPECT_EQ(burst_ends, (std::vector<std::size_t>{1, 2, 2}));
}

}  // namespace
}  // namespace interedge::core
