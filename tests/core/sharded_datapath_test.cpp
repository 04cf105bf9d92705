// Multi-core SN datapath tests (DESIGN.md §9): flow steering, shard
// affinity, invalidation fan-out, ring-full backpressure and the inline
// (workers == 0) equivalence, all over the simulator.
//
// The simulator is single-threaded but the parallel SN is not: net.run()
// delivers and steers, sn.wait_idle() lets the worker shards finish and
// queues their forwards, and the next net.run() delivers those. settle()
// alternates the two until the exchange quiesces.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <set>
#include <span>
#include <thread>
#include <tuple>

#include <gtest/gtest.h>

#include "common/buf_pool.h"
#include "common/clock.h"
#include "common/rng.h"
#include "core/decision_cache.h"
#include "core/service_node.h"
#include "core/test_modules.h"
#include "simnet/simulation.h"

namespace interedge::core {
namespace {

using sim::node_id;
using sim::simulation;

struct sim_host {
  node_id node = 0;
  std::unique_ptr<ilp::pipe_manager> mgr;
  std::vector<std::pair<ilp::ilp_header, bytes>> received;
};

std::unique_ptr<sim_host> make_host(simulation& net) {
  auto h = std::make_unique<sim_host>();
  h->node = net.add_node(nullptr);
  h->mgr = std::make_unique<ilp::pipe_manager>(
      h->node,
      [&net, node = h->node](peer_id peer, bytes d) {
        net.send(node, static_cast<node_id>(peer), std::move(d));
      },
      [raw = h.get()](peer_id, const ilp::ilp_header& hdr, bytes payload) {
        raw->received.emplace_back(hdr, std::move(payload));
      });
  net.set_handler(h->node, [raw = h.get()](node_id from, const bytes& data) {
    raw->mgr->on_datagram(from, data);
  });
  return h;
}

std::unique_ptr<service_node> make_sn(simulation& net, const router* route, std::size_t workers,
                                      std::size_t ring_depth = 1024) {
  const node_id node = net.add_node(nullptr);
  sn_config cfg;
  cfg.id = node;
  cfg.edomain = 1;
  cfg.workers = workers;
  cfg.shard_ring_depth = ring_depth;
  auto sn = std::make_unique<service_node>(
      cfg, net.sim_clock(),
      [&net, node](peer_id to, bytes d) { net.send(node, static_cast<node_id>(to), std::move(d)); },
      [&net](nanoseconds delay, std::function<void()> fn) { net.after(delay, std::move(fn)); },
      route);
  net.set_handler(node, [raw = sn.get()](node_id from, const bytes& data) {
    raw->on_datagram(from, data);
  });
  return sn;
}

ilp::ilp_header delivery_header(edge_addr dest, ilp::connection_id conn = 1) {
  ilp::ilp_header h;
  h.service = ilp::svc::delivery;
  h.connection = conn;
  h.flags = ilp::kFlagFromHost;
  h.set_meta_u64(ilp::meta_key::dest_addr, dest);
  return h;
}

void settle(simulation& net, service_node& sn) {
  for (int round = 0; round < 8; ++round) {
    net.run();
    EXPECT_TRUE(sn.wait_idle(std::chrono::milliseconds(10000)));
  }
  net.run();
}

std::uint64_t steered_total(service_node& sn) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < sn.worker_count(); ++i) {
    total += sn.metrics().get_counter("sn.steer.pkts", {{"shard", std::to_string(i)}}).value();
  }
  return total;
}

std::uint64_t ingress_drops_total(service_node& sn) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < sn.worker_count(); ++i) {
    total +=
        sn.metrics().get_counter("sn.shard.ingress_drops", {{"shard", std::to_string(i)}}).value();
  }
  return total;
}

// Parallel mode delivers exactly the packets the inline SN would — no
// losses, no duplicates — and every data packet flows through a shard.
TEST(ShardedDatapath, ParallelDeliversSameSetAsInline) {
  constexpr int kFlows = 8;
  constexpr int kPerFlow = 25;

  auto run_mode = [&](std::size_t workers) {
    simulation net;
    testing::identity_router route;
    auto alice = make_host(net);
    auto bob = make_host(net);
    auto sn = make_sn(net, &route, workers);
    sn->env().deploy(std::make_unique<testing::forwarder_module>());

    for (int c = 1; c <= kFlows; ++c) {
      for (int p = 0; p < kPerFlow; ++p) {
        const std::string body =
            std::string("c").append(std::to_string(c)).append("p").append(std::to_string(p));
        alice->mgr->send(sn->node_id(), delivery_header(bob->node, c), to_bytes(body));
      }
    }
    settle(net, *sn);

    std::multiset<std::string> payloads;
    for (auto& [hdr, payload] : bob->received) payloads.insert(to_string(payload));

    if (workers > 0) {
      std::uint64_t received = 0, forwarded = 0, slow = 0, fast = 0;
      for (std::size_t i = 0; i < sn->worker_count(); ++i) {
        received += sn->shard_terminus_stats(i).received;
        forwarded += sn->shard_terminus_stats(i).forwarded;
        slow += sn->shard_terminus_stats(i).slow_path;
        fast += sn->shard_terminus_stats(i).fast_path;
      }
      EXPECT_EQ(received, static_cast<std::uint64_t>(kFlows * kPerFlow));
      EXPECT_EQ(forwarded, static_cast<std::uint64_t>(kFlows * kPerFlow));
      EXPECT_EQ(fast + slow, static_cast<std::uint64_t>(kFlows * kPerFlow));
      EXPECT_GE(slow, static_cast<std::uint64_t>(kFlows));  // one miss per flow minimum
      EXPECT_EQ(steered_total(*sn), static_cast<std::uint64_t>(kFlows * kPerFlow));
      EXPECT_EQ(ingress_drops_total(*sn), 0u);
    }
    return payloads;
  };

  const auto inline_set = run_mode(0);
  const auto parallel_set = run_mode(4);
  EXPECT_EQ(inline_set.size(), static_cast<std::size_t>(kFlows * kPerFlow));
  EXPECT_EQ(parallel_set, inline_set);
}

// Every packet of one flow lands on the shard the steerer names — private
// caches stay consistent because a flow never splits across shards.
TEST(ShardedDatapath, FlowAffinityPinsFlowToOneShard) {
  simulation net;
  testing::identity_router route;
  auto alice = make_host(net);
  auto bob = make_host(net);
  auto sn = make_sn(net, &route, 4);
  sn->env().deploy(std::make_unique<testing::forwarder_module>());

  constexpr int kPackets = 40;
  for (int p = 0; p < kPackets; ++p) {
    alice->mgr->send(sn->node_id(), delivery_header(bob->node, 9), to_bytes("x"));
  }
  settle(net, *sn);

  ASSERT_EQ(bob->received.size(), static_cast<std::size_t>(kPackets));
  ASSERT_NE(sn->steerer(), nullptr);
  const std::size_t expected =
      sn->steerer()->shard_of(cache_key{alice->node, ilp::svc::delivery, 9});
  for (std::size_t i = 0; i < sn->worker_count(); ++i) {
    if (i == expected) {
      EXPECT_EQ(sn->shard_terminus_stats(i).received, static_cast<std::uint64_t>(kPackets));
      EXPECT_EQ(sn->shard_cache(i).size(), 1u);
    } else {
      EXPECT_EQ(sn->shard_terminus_stats(i).received, 0u);
      EXPECT_EQ(sn->shard_cache(i).size(), 0u);
    }
  }
}

// Steering is a pure function of (seed, key): a restarted SN with the same
// cache_hash_seed maps every flow to the same shard, and distinct flows
// spread across all shards.
TEST(ShardedDatapath, SteeringDeterministicAcrossRestarts) {
  flow_steerer first(0xfeedbeef, 4);
  flow_steerer restarted(0xfeedbeef, 4);
  std::set<std::size_t> used;
  bool reseeded_differs = false;
  flow_steerer reseeded(0x5eed, 4);
  for (std::uint64_t n = 0; n < 256; ++n) {
    const cache_key k{n * 7919 + 1, static_cast<ilp::service_id>(n % 5), n};
    const std::size_t s = first.shard_of(k);
    EXPECT_EQ(s, restarted.shard_of(k));
    EXPECT_LT(s, 4u);
    used.insert(s);
    if (reseeded.shard_of(k) != s) reseeded_differs = true;
  }
  EXPECT_EQ(used.size(), 4u);      // 256 flows reach every shard
  EXPECT_TRUE(reseeded_differs);   // the mapping is keyed, not positional
}

// A service invalidation published on the control thread empties every
// shard's private cache, and traffic repopulates them afterwards.
TEST(ShardedDatapath, ServiceInvalidationReachesEveryShard) {
  simulation net;
  testing::identity_router route;
  auto alice = make_host(net);
  auto bob = make_host(net);
  auto sn = make_sn(net, &route, 4);
  sn->env().deploy(std::make_unique<testing::forwarder_module>());

  constexpr int kFlows = 8;
  for (int c = 1; c <= kFlows; ++c) {
    alice->mgr->send(sn->node_id(), delivery_header(bob->node, c), to_bytes("warm"));
    alice->mgr->send(sn->node_id(), delivery_header(bob->node, c), to_bytes("warm"));
  }
  settle(net, *sn);

  std::size_t resident = 0;
  for (std::size_t i = 0; i < sn->worker_count(); ++i) resident += sn->shard_cache(i).size();
  ASSERT_EQ(resident, static_cast<std::size_t>(kFlows));

  sn->invalidate_service(ilp::svc::delivery);
  ASSERT_TRUE(sn->wait_idle(std::chrono::milliseconds(10000)));

  std::uint64_t invalidated = 0;
  for (std::size_t i = 0; i < sn->worker_count(); ++i) {
    EXPECT_EQ(sn->shard_cache(i).size(), 0u);
    invalidated += sn->shard_cache_stats(i).invalidations;
  }
  EXPECT_EQ(invalidated, static_cast<std::uint64_t>(kFlows));

  // The fast path re-forms: the next packet misses, redecides, reinstalls.
  alice->mgr->send(sn->node_id(), delivery_header(bob->node, 3), to_bytes("again"));
  settle(net, *sn);
  EXPECT_EQ(bob->received.size(), static_cast<std::size_t>(2 * kFlows + 1));
  resident = 0;
  for (std::size_t i = 0; i < sn->worker_count(); ++i) resident += sn->shard_cache(i).size();
  EXPECT_EQ(resident, 1u);
}

// Targeted connection invalidation only drops that flow's entry.
TEST(ShardedDatapath, ConnectionInvalidationIsTargeted) {
  simulation net;
  testing::identity_router route;
  auto alice = make_host(net);
  auto bob = make_host(net);
  auto sn = make_sn(net, &route, 2);
  sn->env().deploy(std::make_unique<testing::forwarder_module>());

  alice->mgr->send(sn->node_id(), delivery_header(bob->node, 1), to_bytes("a"));
  alice->mgr->send(sn->node_id(), delivery_header(bob->node, 2), to_bytes("b"));
  settle(net, *sn);

  sn->invalidate_connection(ilp::svc::delivery, 1);
  ASSERT_TRUE(sn->wait_idle(std::chrono::milliseconds(10000)));

  std::size_t resident = 0;
  for (std::size_t i = 0; i < sn->worker_count(); ++i) resident += sn->shard_cache(i).size();
  EXPECT_EQ(resident, 1u);
  const std::size_t survivor =
      sn->steerer()->shard_of(cache_key{alice->node, ilp::svc::delivery, 2});
  EXPECT_TRUE(sn->shard_cache(survivor).contains(cache_key{alice->node, ilp::svc::delivery, 2}));
}

// A full ingress ring is counted backpressure, never corruption: every
// packet is either steered (and forwarded) or counted as dropped. The
// worker is stalled while the burst is steered, so the ring fills however
// the threads interleave.
TEST(ShardedDatapath, IngressRingFullDropsAreCounted) {
  simulation net;
  testing::identity_router route;
  auto alice = make_host(net);
  auto bob = make_host(net);
  constexpr std::size_t kRingDepth = 2;
  auto sn = make_sn(net, &route, 1, kRingDepth);
  sn->env().deploy(std::make_unique<testing::forwarder_module>());
  alice->mgr->connect(sn->node_id());
  settle(net, *sn);
  ASSERT_TRUE(alice->mgr->has_pipe(sn->node_id()));

  constexpr std::uint64_t kPackets = 300;
  sn->inject_worker_stall(0, true);
  for (std::uint64_t p = 0; p < kPackets; ++p) {
    alice->mgr->send(sn->node_id(), delivery_header(bob->node), to_bytes("x"));
  }
  net.run();  // steers the whole burst into the stalled shard's ring
  sn->inject_worker_stall(0, false);
  settle(net, *sn);

  const std::uint64_t steered = steered_total(*sn);
  const std::uint64_t drops = ingress_drops_total(*sn);
  const std::uint64_t ring_slots = spsc_ring<int>(kRingDepth).capacity();
  EXPECT_EQ(steered + drops, kPackets);
  EXPECT_EQ(steered, ring_slots);  // the stalled worker takes none of the burst
  EXPECT_GE(drops, kPackets - ring_slots);
  EXPECT_EQ(bob->received.size(), static_cast<std::size_t>(steered));
}

// ISSUE 8: the worker-side egress spill is bounded. With the control
// thread's drain paused, a burst against a tiny egress ring fills the ring
// (depth 4: 4 slots), then the spill deque up to
// egress_spill_max, and every forward past that is dropped and counted —
// never buffered without bound. Unpausing drains exactly the retained
// forwards; the drop counter does not move again.
TEST(ShardedDatapath, EgressSpillBoundDropsAndRecovers) {
  simulation net;
  testing::identity_router route;
  auto alice = make_host(net);
  auto bob = make_host(net);

  const node_id node = net.add_node(nullptr);
  sn_config cfg;
  cfg.id = node;
  cfg.edomain = 1;
  cfg.workers = 1;
  cfg.shard_ring_depth = 1024;  // ingress swallows the whole burst
  cfg.egress_ring_depth = 4;
  cfg.egress_spill_max = 4;
  auto sn = std::make_unique<service_node>(
      cfg, net.sim_clock(),
      [&net, node](peer_id to, bytes d) { net.send(node, static_cast<node_id>(to), std::move(d)); },
      [&net](nanoseconds delay, std::function<void()> fn) { net.after(delay, std::move(fn)); },
      &route);
  net.set_handler(node, [raw = sn.get()](node_id from, const bytes& data) {
    raw->on_datagram(from, data);
  });
  sn->env().deploy(std::make_unique<testing::forwarder_module>());

  constexpr int kPackets = 64;
  constexpr std::uint64_t kRetained = 4 + 4;  // ring + spill
  constexpr std::uint64_t kDropped = kPackets - kRetained;

  sn->pause_egress_drain(true);
  for (int p = 0; p < kPackets; ++p) {
    alice->mgr->send(sn->node_id(), delivery_header(bob->node), to_bytes("burst"));
  }

  // wait_idle cannot return while the spill is pinned nonzero, so pump the
  // control side by hand (net.run delivers + runs the slow-path open,
  // sn->poll pumps the hub but skips the paused egress drain) until the
  // worker has pushed every forward into the bounded egress.
  const counter& spill_drops =
      sn->shard_metrics(0).get_counter("sn.shard.egress_spill_drops");
  for (int spin = 0; spin < 5000 && spill_drops.value() < kDropped; ++spin) {
    net.run();
    sn->poll();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(spill_drops.value(), kDropped);
  EXPECT_TRUE(bob->received.empty());  // nothing leaked past the pause

  sn->pause_egress_drain(false);
  settle(net, *sn);

  // Exactly the ring + spill contents came out; the drops are final.
  EXPECT_EQ(bob->received.size(), static_cast<std::size_t>(kRetained));
  EXPECT_EQ(spill_drops.value(), kDropped);
  // Every forward was still attempted (the terminus counted all of them);
  // the bound acted at the egress ring, not upstream.
  EXPECT_EQ(sn->shard_terminus_stats(0).forwarded, static_cast<std::uint64_t>(kPackets));
}

// Key rotation replicates the fresh receive contexts to every shard over
// the FIFO ingress rings: no packet races ahead of its keys.
TEST(ShardedDatapath, KeyRotationKeepsParallelDatapathAlive) {
  simulation net;
  testing::identity_router route;
  auto alice = make_host(net);
  auto bob = make_host(net);
  auto sn = make_sn(net, &route, 2);
  sn->env().deploy(std::make_unique<testing::forwarder_module>());

  for (int p = 0; p < 5; ++p) {
    alice->mgr->send(sn->node_id(), delivery_header(bob->node), to_bytes("before"));
  }
  settle(net, *sn);
  // Rotation is a local ratchet on each end: the hosts rotate alongside
  // the SN, and the SN's fresh receive contexts fan out to the shards.
  sn->rotate_keys();
  alice->mgr->rotate_all();
  bob->mgr->rotate_all();
  settle(net, *sn);
  for (int p = 0; p < 5; ++p) {
    alice->mgr->send(sn->node_id(), delivery_header(bob->node), to_bytes("after"));
  }
  settle(net, *sn);

  EXPECT_EQ(bob->received.size(), 10u);
  for (std::size_t i = 0; i < sn->worker_count(); ++i) {
    EXPECT_EQ(sn->shard_metrics(i).get_counter("ilp.rx.rejected").value(), 0u);
    EXPECT_EQ(sn->shard_metrics(i).get_counter("sn.shard.no_replica").value(), 0u);
  }
}

// The merged metrics view covers the control registry plus every shard
// registry, so one exposition shows the whole node.
TEST(ShardedDatapath, MergedMetricsCoverShardRegistries) {
  simulation net;
  testing::identity_router route;
  auto alice = make_host(net);
  auto bob = make_host(net);
  auto sn = make_sn(net, &route, 2);
  sn->env().deploy(std::make_unique<testing::forwarder_module>());

  // Two waves with a settle between: the first wave installs the cache
  // entries, the second hits them (a single burst can be entirely steered
  // before any slow-path response lands, making every packet a miss).
  constexpr int kPackets = 20;
  for (int p = 0; p < kPackets / 2; ++p) {
    alice->mgr->send(sn->node_id(), delivery_header(bob->node, 1 + p % 4), to_bytes("m"));
  }
  settle(net, *sn);
  for (int p = 0; p < kPackets / 2; ++p) {
    alice->mgr->send(sn->node_id(), delivery_header(bob->node, 1 + p % 4), to_bytes("m"));
  }
  settle(net, *sn);

  metrics_registry merged;
  sn->merge_metrics_into(merged);
  EXPECT_GT(merged.get_counter("sn.cache.inserts").value(), 0u);
  EXPECT_GT(merged.get_counter("sn.cache.hits").value(), 0u);
  EXPECT_EQ(steered_total(*sn), static_cast<std::uint64_t>(kPackets));

  const std::string prom = sn->export_prometheus();
  EXPECT_NE(prom.find("steer"), std::string::npos);
  // Snapshot twice: the second call produces rate deltas without throwing
  // and without double-counting the merged registries.
  sn->stats_snapshot();
  const std::string snap = sn->stats_snapshot();
  EXPECT_FALSE(snap.empty());
}

// workers == 0 is the unchanged inline SN: no threads, no steerer, and the
// parallel-mode service entry points are safe no-ops.
TEST(ShardedDatapath, WorkersZeroStaysInline) {
  simulation net;
  testing::identity_router route;
  auto alice = make_host(net);
  auto bob = make_host(net);
  auto sn = make_sn(net, &route, 0);
  sn->env().deploy(std::make_unique<testing::forwarder_module>());

  EXPECT_EQ(sn->worker_count(), 0u);
  EXPECT_EQ(sn->steerer(), nullptr);

  for (int p = 0; p < 3; ++p) {
    alice->mgr->send(sn->node_id(), delivery_header(bob->node), to_bytes("inline"));
  }
  net.run();
  EXPECT_EQ(sn->poll(), 0u);
  EXPECT_TRUE(sn->wait_idle(std::chrono::milliseconds(100)));

  EXPECT_EQ(bob->received.size(), 3u);
  EXPECT_EQ(sn->datapath_stats().slow_path, 1u);
  EXPECT_EQ(sn->datapath_stats().fast_path, 2u);
  EXPECT_EQ(sn->cache().stats().hits, 2u);
}

// ---- differential ingress oracle --------------------------------------
//
// One seeded datagram stream — well-formed delivery traffic with hostile
// datagrams mixed in — is fed through both SN ingress entry points (the
// byte entry on_datagram and on_datagram_views), inline and with two
// worker shards. Set-up handshakes and a one-packet-per-flow warm-up go
// through the same entry point first, so every well-formed stream packet is
// a cache hit in every run. All runs must deliver the same (connection,
// payload) multiset, sum to the same terminus stats, count the same ingress
// drops and account for every datagram fed, and every slab must be back in
// the test's pool and the SN's own once the exchange quiesces.

enum class ingress_entry { bytes, views };

enum class hostile : int {
  flip_header_bit,  // one bit of the sealed header flipped
  truncate,         // the datagram cut short
  long_varint,      // an over-long sealed-length varint
  unknown_spi,      // the sealed header's SPI rewritten
  no_pipe,          // data from a peer that never handshook
  empty,            // a zero-length datagram
  unknown_kind,     // a kind byte no element sends
  count,
};

struct stream_totals {
  std::multiset<std::pair<ilp::connection_id, std::string>> delivered;
  terminus_stats terminus{};  // inline terminus plus every shard's
  std::uint64_t rejected = 0;  // ilp.rx.rejected over every registry
  std::uint64_t no_pipe = 0;   // ilp.rx.no_pipe
  std::uint64_t fed = 0;       // datagrams handed to the SN
  std::uint64_t control = 0;   // handshake messages among them
  std::uint64_t well_formed = 0;
  std::array<std::uint64_t, static_cast<int>(hostile::count)> hostiles{};
};

auto stats_tuple(const terminus_stats& s) {
  return std::tuple(s.received, s.fast_path, s.slow_path, s.forwarded, s.delivered, s.dropped,
                    s.backpressure, s.shed);
}

class ingress_rig {
 public:
  static constexpr peer_id kAlice = 11;
  static constexpr peer_id kBob = 12;
  static constexpr peer_id kMallory = 13;  // never establishes a pipe
  static constexpr peer_id kSn = 20;
  static constexpr int kFlows = 8;

  ingress_rig(std::size_t workers, ingress_entry entry) : entry_(entry) {
    sn_config cfg;
    cfg.id = kSn;
    cfg.edomain = 1;
    cfg.workers = workers;
    sn_ = std::make_unique<service_node>(
        cfg, clk_, [this](peer_id to, bytes d) { from_sn_.emplace_back(to, std::move(d)); },
        [](nanoseconds, std::function<void()>) {}, &route_);
    sn_->env().deploy(std::make_unique<testing::forwarder_module>());
    alice_ = std::make_unique<ilp::pipe_manager>(
        kAlice, [this](peer_id, bytes d) { alice_out_.push_back(std::move(d)); },
        [](peer_id, const ilp::ilp_header&, bytes) {});
    bob_ = std::make_unique<ilp::pipe_manager>(
        kBob, [this](peer_id, bytes d) { bob_out_.push_back(std::move(d)); },
        [this](peer_id, const ilp::ilp_header& h, bytes payload) {
          totals_.delivered.emplace(h.connection, to_string(payload));
        });
  }

  // Handshakes both pipes, then installs every flow's decision with one
  // packet per flow. Both go through the entry point under test.
  void set_up() {
    alice_->connect(kSn);
    sn_->peer_with(kBob);
    for (int round = 0; round < 16 && !ready(); ++round) {
      std::vector<std::pair<peer_id, bytes>> in;
      for (bytes& d : alice_out_) in.emplace_back(kAlice, std::move(d));
      for (bytes& d : bob_out_) in.emplace_back(kBob, std::move(d));
      alice_out_.clear();
      bob_out_.clear();
      feed(in);
      settle();
    }
    ASSERT_TRUE(ready());
    std::vector<std::pair<peer_id, bytes>> warm;
    for (int c = 1; c <= kFlows; ++c) {
      alice_->send(kSn, header(c), to_bytes(std::string("w").append(std::to_string(c))));
      warm.emplace_back(kAlice, std::move(alice_out_.back()));
      ++totals_.well_formed;
    }
    alice_out_.clear();
    feed(warm);
    settle();
  }

  // Feeds `length` seeded stream datagrams in seeded batches of 1..32.
  void run_stream(std::uint64_t seed, std::size_t length) {
    rng r(seed);
    std::vector<std::pair<peer_id, bytes>> stream;
    for (std::size_t i = 0; i < length; ++i) {
      const int c = static_cast<int>(r.below(kFlows)) + 1;
      if (r.chance(0.7)) {
        const std::string body =
            std::string("c").append(std::to_string(c)).append("p").append(std::to_string(i));
        stream.emplace_back(kAlice, seal(c, body));
        ++totals_.well_formed;
        continue;
      }
      const auto h = static_cast<hostile>(r.below(static_cast<int>(hostile::count)));
      ++totals_.hostiles[static_cast<int>(h)];
      bytes d = seal(c, std::string("h").append(std::to_string(i)));
      peer_id from = kAlice;
      // Wire layout: kind || varint sealed_len || spi(4) iv(8) ct tag || payload.
      std::size_t sealed_at = 1;
      std::size_t sealed_len = 0;
      for (int shift = 0;; shift += 7) {
        const std::uint8_t b = d[sealed_at++];
        sealed_len |= static_cast<std::size_t>(b & 0x7f) << shift;
        if ((b & 0x80) == 0) break;
      }
      switch (h) {
        case hostile::flip_header_bit: {
          const std::size_t bit = r.below(sealed_len * 8);
          d[sealed_at + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
          break;
        }
        case hostile::truncate:
          d.resize(1 + r.below(d.size() - 1));
          break;
        case hostile::long_varint:
          d.insert(d.begin() + 1, 10, std::uint8_t{0xff});
          break;
        case hostile::unknown_spi:
          for (int k = 0; k < 4; ++k) d[sealed_at + k] ^= 0x5a;
          break;
        case hostile::no_pipe:
          from = kMallory;
          break;
        case hostile::empty:
          d.clear();
          break;
        case hostile::unknown_kind:
          d[0] = 0x7f;
          break;
        case hostile::count:
          break;
      }
      stream.emplace_back(from, std::move(d));
    }
    std::size_t at = 0;
    while (at < stream.size()) {
      const std::size_t n = std::min<std::size_t>(1 + r.below(32), stream.size() - at);
      feed(std::span(stream).subspan(at, n));
      at += n;
    }
    settle();
  }

  stream_totals totals() {
    stream_totals t = totals_;
    t.terminus = sn_->datapath_stats();
    for (std::size_t k = 0; k < sn_->worker_count(); ++k) {
      const terminus_stats& s = sn_->shard_terminus_stats(k);
      t.terminus.received += s.received;
      t.terminus.fast_path += s.fast_path;
      t.terminus.slow_path += s.slow_path;
      t.terminus.forwarded += s.forwarded;
      t.terminus.delivered += s.delivered;
      t.terminus.dropped += s.dropped;
      t.terminus.backpressure += s.backpressure;
      t.terminus.shed += s.shed;
    }
    metrics_registry merged;
    sn_->merge_metrics_into(merged);
    t.rejected = merged.get_counter("ilp.rx.rejected").value();
    t.no_pipe = merged.get_counter("ilp.rx.no_pipe").value();
    EXPECT_EQ(merged.get_counter("sn.shard.no_replica").value(), 0u);
    EXPECT_EQ(ingress_drops_total(*sn_), 0u);
    for (const buf::pool_stats& ps : {pool_.stats(), sn_->ingress_pool().stats()}) {
      EXPECT_EQ(ps.outstanding, 0u);
      EXPECT_EQ(ps.allocs, ps.frees);
      EXPECT_EQ(ps.exhausted, 0u);
    }
    return t;
  }

 private:
  bool ready() const {
    return alice_->has_pipe(kSn) && bob_->has_pipe(kSn) && sn_->pipes().pipe_count() == 2;
  }

  ilp::ilp_header header(int c) const {
    ilp::ilp_header h = delivery_header(kBob, static_cast<ilp::connection_id>(c));
    h.set_meta_u64(ilp::meta_key::src_addr, kAlice);
    return h;
  }

  bytes seal(int c, const std::string& payload) {
    alice_->send(kSn, header(c), to_bytes(payload));
    bytes d = std::move(alice_out_.back());
    alice_out_.clear();
    return d;
  }

  void feed(std::span<const std::pair<peer_id, bytes>> batch) {
    for (const auto& [from, d] : batch) {
      ++totals_.fed;
      if (!d.empty() && (d[0] == static_cast<std::uint8_t>(ilp::msg_kind::handshake_init) ||
                         d[0] == static_cast<std::uint8_t>(ilp::msg_kind::handshake_resp))) {
        ++totals_.control;
      }
    }
    switch (entry_) {
      case ingress_entry::bytes:
        for (const auto& [from, d] : batch) sn_->on_datagram(from, d);
        break;
      case ingress_entry::views: {
        std::vector<std::pair<peer_id, buf::pkt_view>> views;
        for (const auto& [from, d] : batch) {
          buf::slab_ref slab = pool_.try_alloc();
          ASSERT_TRUE(slab);
          std::copy(d.begin(), d.end(), slab.data());
          views.emplace_back(from, buf::pkt_view(std::move(slab), 0, d.size()));
        }
        sn_->on_datagram_views(views);
        break;
      }
    }
  }

  // Lets the shards finish, then hands the SN's egress to the hosts.
  void settle() {
    for (int round = 0; round < 4; ++round) {
      ASSERT_TRUE(sn_->wait_idle(std::chrono::milliseconds(10000)));
      std::vector<std::pair<peer_id, bytes>> out;
      out.swap(from_sn_);
      for (const auto& [to, d] : out) {
        if (to == kAlice) alice_->on_datagram(kSn, d);
        if (to == kBob) bob_->on_datagram(kSn, d);
      }
    }
  }

  ingress_entry entry_;
  manual_clock clk_;
  testing::identity_router route_;
  stream_totals totals_;
  std::vector<std::pair<peer_id, bytes>> from_sn_;
  std::vector<bytes> alice_out_;
  std::vector<bytes> bob_out_;
  // Declared before the SN so every slab outlives any view the SN holds.
  buf::buf_pool pool_{buf::pool_config{.slab_size = 2048, .slab_count = 1024}};
  std::unique_ptr<service_node> sn_;
  std::unique_ptr<ilp::pipe_manager> alice_;
  std::unique_ptr<ilp::pipe_manager> bob_;
};

TEST(ShardedDatapath, ViewsIngressMatchesBytesIngress) {
  constexpr std::uint64_t kSeed = 0x1e55;
  constexpr std::size_t kStream = 600;
  struct arm {
    std::size_t workers;
    ingress_entry entry;
  };
  const arm arms[] = {
      {0, ingress_entry::bytes},
      {0, ingress_entry::views},
      {2, ingress_entry::bytes},
      {2, ingress_entry::views},
  };
  std::optional<stream_totals> first;
  for (const arm& a : arms) {
    SCOPED_TRACE(::testing::Message() << "workers=" << a.workers
                                    << " entry=" << static_cast<int>(a.entry));
    ingress_rig rig(a.workers, a.entry);
    rig.set_up();
    if (HasFatalFailure()) return;
    rig.run_stream(kSeed, kStream);
    const stream_totals t = rig.totals();

    // Every well-formed packet is delivered exactly once; every hostile
    // one is refused.
    EXPECT_EQ(t.delivered.size(), t.well_formed);
    EXPECT_EQ(t.terminus.received, t.well_formed);
    EXPECT_EQ(t.terminus.forwarded, t.well_formed);
    EXPECT_EQ(t.terminus.slow_path, static_cast<std::uint64_t>(ingress_rig::kFlows));
    EXPECT_EQ(t.no_pipe, t.hostiles[static_cast<int>(hostile::no_pipe)]);
    EXPECT_EQ(t.rejected, t.hostiles[static_cast<int>(hostile::flip_header_bit)] +
                              t.hostiles[static_cast<int>(hostile::truncate)] +
                              t.hostiles[static_cast<int>(hostile::long_varint)] +
                              t.hostiles[static_cast<int>(hostile::unknown_spi)] +
                              t.hostiles[static_cast<int>(hostile::empty)] +
                              t.hostiles[static_cast<int>(hostile::unknown_kind)]);
    // Conservation: every datagram fed is opened, refused or a handshake.
    EXPECT_EQ(t.fed, t.terminus.received + t.rejected + t.no_pipe + t.control);
    for (int h = 0; h < static_cast<int>(hostile::count); ++h) {
      EXPECT_GT(t.hostiles[h], 0u) << "hostile kind " << h << " never drawn";
    }

    if (!first) {
      first = t;
      continue;
    }
    EXPECT_EQ(t.delivered, first->delivered);
    EXPECT_EQ(stats_tuple(t.terminus), stats_tuple(first->terminus));
    EXPECT_EQ(t.rejected, first->rejected);
    EXPECT_EQ(t.no_pipe, first->no_pipe);
    EXPECT_EQ(t.fed, first->fed);
  }
}

// The invalidation bus against live worker threads: lookups and inserts on
// shard-private caches race erase_service/erase_connection publishes. Run
// under tsan (ci_sanitizers.sh) this must be clean — the caches are never
// shared, only the SPSC command rings cross threads.
TEST(ShardedDatapath, ConcurrentInvalidationIsRaceFree) {
  constexpr std::size_t kShards = 2;
  cache_invalidation_bus bus(kShards, 64);
  std::vector<std::unique_ptr<decision_cache>> caches;
  for (std::size_t i = 0; i < kShards; ++i) {
    caches.push_back(std::make_unique<decision_cache>(256, 42));
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (std::size_t i = 0; i < kShards; ++i) {
    workers.emplace_back([&, i] {
      decision_cache& cache = *caches[i];
      std::uint64_t conn = 0;
      while (!stop.load(std::memory_order_acquire)) {
        bus.drain(i, cache);
        const cache_key k{i + 1, static_cast<ilp::service_id>(conn % 3), conn % 128};
        if (!cache.lookup(k)) cache.insert(k, decision::forward_to(9));
        ++conn;
      }
      bus.drain(i, cache);
    });
  }

  for (int round = 0; round < 2000; ++round) {
    bus.publish(cache_command{cache_op::erase_service,
                              static_cast<ilp::service_id>(round % 3), 0, 0});
    if (round % 5 == 0) {
      bus.publish(cache_command{cache_op::erase_connection,
                                static_cast<ilp::service_id>(round % 3),
                                static_cast<ilp::connection_id>(round % 128), 0});
    }
  }
  while (!bus.quiesced()) std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  for (auto& t : workers) t.join();

  EXPECT_TRUE(bus.quiesced());
  EXPECT_EQ(bus.published(), 2000u + 400u);
  for (std::size_t i = 0; i < kShards; ++i) {
    EXPECT_EQ(bus.applied(i), bus.published());
    // Post-join the caches are plain single-threaded objects again.
    EXPECT_LE(caches[i]->size(), caches[i]->capacity());
  }
}

}  // namespace
}  // namespace interedge::core
