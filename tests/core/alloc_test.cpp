// Allocation budget of the SN packet path (DESIGN.md §4, §5).
//
// After warm-up, delivery traffic in the shape the fast path exists for
// must not touch the heap on the inline SN: slab-view ingress, dest/src
// metadata in every header, a decision-cache hit per packet (each packet
// on a different connection than the one before, so the terminus'
// same-flow memo never stands in for the lookup), forward verdicts into a
// gather sink, and a sampled trace context on every 16th packet. With one
// worker shard the budget is one allocation per packet: the owned payload
// copy that a forward takes into the shard's egress ring.
//
// The miss arms hold the slow path to the same budget: a 64-entry cache
// and 256 connections fed in order, so under LRU every connection's entry
// is evicted before its next packet and every packet goes through the
// delivery module — the pending slot, the upcall, the module's verdict and
// cache insert, and an eviction.
//
// bench/alloc_counter.cpp replaces the global operator new for this
// binary and counts every call, on every thread, while counting is on.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "alloc_counter.h"
#include "common/buf_pool.h"
#include "common/clock.h"
#include "core/service_node.h"
#include "core/test_modules.h"
#include "ilp/pipe_manager.h"
#include "services/delivery.h"

namespace interedge::core {
namespace {

using bench::g_count_allocs;
using bench::g_heap_allocs;

constexpr peer_id kSn = 100;
constexpr peer_id kSender = 200;
constexpr peer_id kSink = 300;
constexpr std::size_t kConnections = 256;
constexpr std::size_t kBatch = 32;
constexpr std::size_t kTraceEvery = 16;
constexpr std::size_t kPayload = 64;
constexpr std::size_t kCountedRounds = 16;  // 16 x 256 = 4096 packets
constexpr std::size_t kMissCapacity = 64;   // < kConnections: every lookup misses

// One SN with a sender and a sink peer, and one sealed delivery datagram
// per connection. PSP keeps no replay window, so the same datagrams are
// fed again every round.
class sn_rig {
 public:
  // `byte_entry` feeds the datagrams through service_node::on_datagram, one
  // call per packet, instead of batches of slab views.
  sn_rig(std::size_t workers, bool byte_entry,
         std::size_t cache_capacity = sn_config{}.cache_capacity)
      : byte_entry_(byte_entry) {
    sn_config cfg;
    cfg.id = kSn;
    cfg.edomain = 1;
    cfg.workers = workers;
    cfg.cache_capacity = cache_capacity;
    sn_ = std::make_unique<service_node>(
        cfg, clk_, [this](peer_id to, bytes d) { from_sn_.emplace_back(to, std::move(d)); },
        [](nanoseconds, std::function<void()>) {}, &route_);
    sn_->env().deploy(std::make_unique<services::delivery_service>());
    sn_->pipes().set_send_gather([this](peer_id to, const_byte_span, const_byte_span payload) {
      if (to == kSink && payload.size() == kPayload) ++forwarded_;
    });
    sender_ = std::make_unique<ilp::pipe_manager>(
        kSender, [this](peer_id, bytes d) { sender_out_.push_back(std::move(d)); },
        [](peer_id, const ilp::ilp_header&, bytes) {});
    sink_ = std::make_unique<ilp::pipe_manager>(
        kSink, [this](peer_id, bytes d) { to_sn_.emplace_back(kSink, std::move(d)); },
        [](peer_id, const ilp::ilp_header&, bytes) {});
    sender_->connect(kSn);
    sn_->peer_with(kSink);
    for (int round = 0; round < 16 && !ready(); ++round) shuttle();

    for (std::size_t c = 0; c < kConnections; ++c) {
      ilp::ilp_header h;
      h.service = ilp::svc::delivery;
      h.connection = 1000 + c;
      h.flags = ilp::kFlagFromHost;
      h.set_meta_u64(ilp::meta_key::dest_addr, kSink);
      h.set_meta_u64(ilp::meta_key::src_addr, kSender);
      if (c % kTraceEvery == 0) {
        h.set_trace(trace::trace_context{.trace_id = c + 1,
                                         .parent_span = 0,
                                         .hop_count = 0,
                                         .flags = trace::kTraceCtxSampled});
      }
      sender_->send(kSn, h, bytes(kPayload, static_cast<std::uint8_t>(c)));
    }
    wires_.swap(sender_out_);
    views_.reserve(kBatch);
  }

  bool ready() const {
    return sender_->has_pipe(kSn) && sink_->has_pipe(kSn) && sn_->pipes().pipe_count() == 2;
  }

  // Feeds every connection's datagram once, in batches of kBatch slab
  // views. A worker is stalled while a batch is steered, so it takes each
  // batch whole (kBatch is its pop size) and the sizes its scratch
  // buffers grow to do not depend on thread timing.
  void round() {
    const bool sharded = sn_->worker_count() > 0;
    for (std::size_t c = 0; c < wires_.size(); ++c) {
      if (byte_entry_) {
        if (sharded && c % kBatch == 0) sn_->inject_worker_stall(0, true);
        sn_->on_datagram(kSender, wires_[c]);
        if (sharded && (c % kBatch == kBatch - 1 || c + 1 == wires_.size())) {
          sn_->inject_worker_stall(0, false);
          ASSERT_TRUE(sn_->wait_idle(std::chrono::seconds(10)));
        }
        continue;
      }
      buf::slab_ref slab = slabs_.try_alloc();
      ASSERT_TRUE(slab);
      std::memcpy(slab.data(), wires_[c].data(), wires_[c].size());
      views_.emplace_back(kSender, buf::pkt_view(std::move(slab), 0, wires_[c].size()));
      if (views_.size() == kBatch || c + 1 == wires_.size()) {
        if (sharded) sn_->inject_worker_stall(0, true);
        sn_->on_datagram_views(views_);
        views_.clear();
        if (sharded) {
          sn_->inject_worker_stall(0, false);
          ASSERT_TRUE(sn_->wait_idle(std::chrono::seconds(10)));
        }
      }
    }
  }

  // Packets that took the fast path, over the inline terminus and shards.
  std::uint64_t fast_path() const {
    std::uint64_t n = sn_->datapath_stats().fast_path;
    for (std::size_t k = 0; k < sn_->worker_count(); ++k) {
      n += sn_->shard_terminus_stats(k).fast_path;
    }
    return n;
  }

  std::size_t wires() const { return wires_.size(); }
  std::uint64_t forwarded() const { return forwarded_; }

 private:
  // Set-up pump: moves handshake datagrams both ways.
  void shuttle() {
    std::vector<std::pair<peer_id, bytes>> moving;
    moving.swap(to_sn_);
    for (const auto& [from, d] : moving) sn_->on_datagram(from, d);
    for (bytes& d : sender_out_) sn_->on_datagram(kSender, d);
    sender_out_.clear();
    if (sn_->worker_count() > 0) sn_->wait_idle(std::chrono::seconds(1));
    moving.clear();
    moving.swap(from_sn_);
    for (const auto& [to, d] : moving) {
      if (to == kSender) sender_->on_datagram(kSn, d);
      if (to == kSink) sink_->on_datagram(kSn, d);
    }
  }

  bool byte_entry_;
  manual_clock clk_;
  testing::identity_router route_;
  std::vector<std::pair<peer_id, bytes>> to_sn_;
  std::vector<std::pair<peer_id, bytes>> from_sn_;
  std::vector<bytes> sender_out_;
  std::unique_ptr<service_node> sn_;
  std::unique_ptr<ilp::pipe_manager> sender_;
  std::unique_ptr<ilp::pipe_manager> sink_;
  std::vector<bytes> wires_;
  buf::buf_pool pool_{buf::pool_config{.slab_size = 256, .slab_count = 4 * kBatch}};
  buf::buf_pool::cache slabs_{pool_};
  std::vector<std::pair<peer_id, buf::pkt_view>> views_;
  std::uint64_t forwarded_ = 0;
};

struct budget {
  std::uint64_t packets = 0;
  std::uint64_t allocs = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t fast_path = 0;
};

// Warms the rig up (the first round installs every connection's decision
// on the slow path), then counts allocations over kCountedRounds rounds.
budget measure(sn_rig& rig) {
  budget b;
  for (int warm = 0; warm < 2; ++warm) {
    rig.round();
    if (::testing::Test::HasFatalFailure()) return b;
  }
  const std::uint64_t forwarded0 = rig.forwarded();
  const std::uint64_t fast0 = rig.fast_path();
  g_heap_allocs.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  for (std::size_t r = 0; r < kCountedRounds; ++r) {
    rig.round();
    if (::testing::Test::HasFatalFailure()) break;
  }
  g_count_allocs.store(false, std::memory_order_relaxed);
  b.packets = kCountedRounds * rig.wires();
  b.allocs = g_heap_allocs.load(std::memory_order_relaxed);
  b.forwarded = rig.forwarded() - forwarded0;
  b.fast_path = rig.fast_path() - fast0;
  return b;
}

TEST(AllocBudget, InlineSnForwardsWithoutAllocating) {
  sn_rig rig(0, /*byte_entry=*/false);
  ASSERT_TRUE(rig.ready());
  ASSERT_EQ(rig.wires(), kConnections);
  const budget b = measure(rig);
  ASSERT_EQ(b.packets, 4096u);
  EXPECT_EQ(b.forwarded, b.packets);
  EXPECT_EQ(b.fast_path, b.packets);  // every packet a cache hit
  EXPECT_EQ(b.allocs, 0u) << "heap allocations over " << b.packets << " packets";
}

TEST(AllocBudget, ShardedSnAllocatesOnlyTheEgressCopy) {
  sn_rig rig(1, /*byte_entry=*/false);
  ASSERT_TRUE(rig.ready());
  ASSERT_EQ(rig.wires(), kConnections);
  const budget b = measure(rig);
  ASSERT_EQ(b.packets, 4096u);
  EXPECT_EQ(b.forwarded, b.packets);
  EXPECT_EQ(b.fast_path, b.packets);
  EXPECT_LE(b.allocs, b.packets) << "heap allocations over " << b.packets << " packets";
}

// The byte entry copies each datagram into a slab of the SN's own pool
// and takes the same path as a batch of one slab view.
TEST(AllocBudget, InlineByteEntryForwardsWithoutAllocating) {
  sn_rig rig(0, /*byte_entry=*/true);
  ASSERT_TRUE(rig.ready());
  ASSERT_EQ(rig.wires(), kConnections);
  const budget b = measure(rig);
  ASSERT_EQ(b.packets, 4096u);
  EXPECT_EQ(b.forwarded, b.packets);
  EXPECT_EQ(b.fast_path, b.packets);
  EXPECT_EQ(b.allocs, 0u) << "heap allocations over " << b.packets << " packets";
}

TEST(AllocBudget, ShardedByteEntryAllocatesOnlyTheEgressCopy) {
  sn_rig rig(1, /*byte_entry=*/true);
  ASSERT_TRUE(rig.ready());
  ASSERT_EQ(rig.wires(), kConnections);
  const budget b = measure(rig);
  ASSERT_EQ(b.packets, 4096u);
  EXPECT_EQ(b.forwarded, b.packets);
  EXPECT_EQ(b.fast_path, b.packets);
  EXPECT_LE(b.allocs, b.packets) << "heap allocations over " << b.packets << " packets";
}

TEST(AllocBudget, InlineSnMissesWithoutAllocating) {
  sn_rig rig(0, /*byte_entry=*/false, kMissCapacity);
  ASSERT_TRUE(rig.ready());
  ASSERT_EQ(rig.wires(), kConnections);
  const budget b = measure(rig);
  ASSERT_EQ(b.packets, 4096u);
  EXPECT_EQ(b.forwarded, b.packets);
  EXPECT_EQ(b.fast_path, 0u);  // every packet a miss
  EXPECT_EQ(b.allocs, 0u) << "heap allocations over " << b.packets << " slow-path packets";
}

TEST(AllocBudget, ShardedSnMissAllocatesOnlyTheEgressCopy) {
  sn_rig rig(1, /*byte_entry=*/false, kMissCapacity);
  ASSERT_TRUE(rig.ready());
  ASSERT_EQ(rig.wires(), kConnections);
  const budget b = measure(rig);
  ASSERT_EQ(b.packets, 4096u);
  EXPECT_EQ(b.forwarded, b.packets);
  EXPECT_EQ(b.fast_path, 0u);
  EXPECT_LE(b.allocs, b.packets) << "heap allocations over " << b.packets
                                 << " slow-path packets";
}

}  // namespace
}  // namespace interedge::core
