// DDoS mitigation under slow-path shed (ISSUE 9 satellite): a protected
// destination flooded with cold flows saturates the slow path, and the
// node must fail closed — the flood sheds with TTL'd drop verdicts while
// allowlisted legitimate flows ride their cached admit verdicts through
// the congestion untouched. Also pins the verdict lifetimes: shed drops
// age out (re-judged, still denied) and admit-cache entries age out
// (re-judged, re-admitted).
#include <gtest/gtest.h>

#include <cstring>

#include "common/buf_pool.h"
#include "common/serial.h"
#include "core/service_node.h"
#include "core/test_modules.h"
#include "services/ddos.h"
#include "simnet/simulation.h"

namespace interedge::core {
namespace {

using namespace std::chrono_literals;
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

std::unique_ptr<service_node> make_sn(simulation& net, const router* route,
                                      sn_config config) {
  const node_id node = net.add_node(nullptr);
  config.id = node;
  auto sn = std::make_unique<service_node>(
      config, net.sim_clock(),
      [&net, node](peer_id to, bytes d) {
        net.send(node, static_cast<node_id>(to), std::move(d));
      },
      [&net](nanoseconds delay, std::function<void()> fn) { net.after(delay, std::move(fn)); },
      route);
  net.set_handler(node, [raw = sn.get()](node_id from, const bytes& data) {
    raw->on_datagram(from, data);
  });
  return sn;
}

// A client whose sealed datagrams land in an outbox instead of the
// simulator, so a whole flood can be handed to the SN as one ingress
// batch (the failover_test pattern).
struct outbox_client {
  node_id node = 0;
  std::vector<bytes> outbox;
  std::unique_ptr<ilp::pipe_manager> mgr;
};

std::unique_ptr<outbox_client> make_outbox_client(simulation& net) {
  auto c = std::make_unique<outbox_client>();
  c->node = net.add_node(nullptr);
  c->mgr = std::make_unique<ilp::pipe_manager>(
      c->node, [raw = c.get()](peer_id, bytes d) { raw->outbox.push_back(std::move(d)); },
      [](peer_id, const ilp::ilp_header&, bytes) {});
  net.set_handler(c->node, [raw = c.get()](node_id from, const bytes& data) {
    raw->mgr->on_datagram(from, data);
  });
  return c;
}

// Feeds a client's queued datagrams into the SN until the exchange
// settles (handshake replies flush queued sends back into the outbox).
void pump(simulation& net, service_node& sn, outbox_client& c) {
  while (!c.outbox.empty()) {
    std::vector<bytes> batch = std::move(c.outbox);
    c.outbox.clear();
    for (bytes& d : batch) sn.on_datagram(c.node, d);
    ASSERT_TRUE(sn.wait_idle());
    net.run();
  }
}

ilp::ilp_header data_header(edge_addr dest, edge_addr src, ilp::connection_id conn) {
  ilp::ilp_header h;
  h.service = ilp::svc::ddos_protect;
  h.connection = conn;
  h.flags = ilp::kFlagFromHost;
  h.set_meta_u64(ilp::meta_key::dest_addr, dest);
  h.set_meta_u64(ilp::meta_key::src_addr, src);
  return h;
}

ilp::ilp_header control_header(std::string_view op, edge_addr src) {
  ilp::ilp_header h;
  h.service = ilp::svc::ddos_protect;
  h.connection = 900;
  h.flags = ilp::kFlagControl | ilp::kFlagFromHost;
  h.set_meta_str(ilp::meta_key::control_op, op);
  h.set_meta_u64(ilp::meta_key::src_addr, src);
  return h;
}

std::size_t payload_count(const sim_host& h, std::string_view body) {
  std::size_t n = 0;
  for (const auto& [hdr, payload] : h.received) {
    if (to_string(payload) == body) ++n;
  }
  return n;
}

// Shared fixture state: a parallel SN with a tiny slow-path budget, the
// real ddos module protecting `victim`, `legit` allowlisted with a cached
// admit verdict, and an attacker wired for batch floods.
struct shed_rig {
  simulation net;
  testing::identity_router route;
  // Declared before the SN: its shards hold slab views until they are
  // done with them.
  buf::buf_pool pool{buf::pool_config{.slab_size = 2048, .slab_count = 512}};
  std::unique_ptr<sim_host> victim;
  std::unique_ptr<service_node> sn;
  services::ddos_service* ddos = nullptr;
  std::unique_ptr<outbox_client> legit;
  std::unique_ptr<outbox_client> attacker;

  explicit shed_rig(sn_config config) {
    victim = make_host(net);
    sn = make_sn(net, &route, config);
    auto mod = std::make_unique<services::ddos_service>(1e6, 1e6, /*secret_seed=*/7);
    ddos = mod.get();
    sn->env().deploy(std::move(mod));
    legit = make_outbox_client(net);
    attacker = make_outbox_client(net);

    // Protection on, legitimate sender allowlisted, admitted flows cached
    // with a TTL so the fast path survives slow-path pressure.
    victim->mgr->send(sn->node_id(), control_header(services::ops::protect, victim->node), {});
    net.run();
    writer w(8);
    w.u64(legit->node);
    victim->mgr->send(sn->node_id(), control_header(services::ops::allow, victim->node),
                      w.take());
    net.run();
    sn->env().set_config(ilp::svc::ddos_protect, "admit_cache_ttl_ms", "50");
  }

  // Hands a whole burst to the SN as one ingress batch of slab views.
  void ingest(const std::vector<std::pair<peer_id, bytes>>& burst) {
    std::vector<std::pair<peer_id, buf::pkt_view>> views;
    for (const auto& [from, d] : burst) {
      buf::slab_ref slab = pool.try_alloc();
      ASSERT_TRUE(slab);
      std::memcpy(slab.data(), d.data(), d.size());
      views.emplace_back(from, buf::pkt_view(std::move(slab), 0, d.size()));
    }
    sn->on_datagram_views(views);
  }
};

TEST(DdosShed, LegitimateFlowsSurviveFloodOnCachedAdmitVerdicts) {
  shed_rig rig(sn_config{.workers = 2, .slowpath_high_water = 4, .shed_ttl = 5ms});

  // Warm the legitimate flow: its first packet takes the slow path, gets
  // uRPF-checked against the allowlist, and installs a TTL'd forward.
  rig.legit->mgr->send(rig.sn->node_id(),
                       data_header(rig.victim->node, rig.legit->node, 1), to_bytes("legit"));
  pump(rig.net, *rig.sn, *rig.legit);
  ASSERT_EQ(payload_count(*rig.victim, "legit"), 1u);

  // Establish the attacker's pipe (its warm packet is denied: protected
  // destination, no allowlist entry, no token — fail closed).
  rig.attacker->mgr->send(rig.sn->node_id(),
                          data_header(rig.victim->node, rig.attacker->node, 100),
                          to_bytes("attack"));
  pump(rig.net, *rig.sn, *rig.attacker);
  ASSERT_EQ(payload_count(*rig.victim, "attack"), 0u);

  // One ingress batch: 400 cold attack flows with a legitimate packet
  // interleaved every 20 — the shard rings saturate the 4-deep slow-path
  // budget long before the control thread pumps it.
  constexpr int kFlood = 400;
  constexpr int kLegit = kFlood / 20;
  for (int i = 1; i <= kFlood; ++i) {
    rig.attacker->mgr->send(rig.sn->node_id(),
                            data_header(rig.victim->node, rig.attacker->node, 100 + i),
                            to_bytes("attack"));
  }
  for (int i = 0; i < kLegit; ++i) {
    rig.legit->mgr->send(rig.sn->node_id(),
                         data_header(rig.victim->node, rig.legit->node, 1), to_bytes("legit"));
  }
  ASSERT_EQ(rig.attacker->outbox.size(), static_cast<std::size_t>(kFlood));
  ASSERT_EQ(rig.legit->outbox.size(), static_cast<std::size_t>(kLegit));
  std::vector<std::pair<peer_id, bytes>> burst;
  for (int i = 0; i < kFlood; ++i) {
    burst.emplace_back(rig.attacker->node, std::move(rig.attacker->outbox[i]));
    if (i % 20 == 19) {
      burst.emplace_back(rig.legit->node, std::move(rig.legit->outbox[i / 20]));
    }
  }
  rig.attacker->outbox.clear();
  rig.legit->outbox.clear();
  rig.ingest(burst);
  ASSERT_TRUE(rig.sn->wait_idle());
  rig.net.run();

  // Survival ratio 1.0: every legitimate packet rode its cached admit
  // verdict through the saturated slow path.
  EXPECT_EQ(payload_count(*rig.victim, "legit"), 1u + kLegit);
  // Fail closed: nothing from the flood reached the victim — denied on
  // the slow path or shed before reaching it.
  EXPECT_EQ(payload_count(*rig.victim, "attack"), 0u);

  metrics_registry merged;
  rig.sn->merge_metrics_into(merged);
  double shed = 0;
  for (const auto& s : merged.samples()) {
    if (s.name == "sn.slowpath.shed") shed += s.value;
  }
  EXPECT_GT(shed, 0.0);
  // Every packet a shard received was resolved one way or another.
  std::uint64_t received = 0, resolved = 0;
  for (std::size_t s = 0; s < rig.sn->worker_count(); ++s) {
    const auto& st = rig.sn->shard_terminus_stats(s);
    received += st.received;
    resolved += st.fast_path + st.slow_path + st.shed;
  }
  EXPECT_EQ(resolved, received);
}

// How one flood burst resolved across the shards, and how many of its
// packets the ddos module judged (denied).
struct burst_outcome {
  std::uint64_t fast_path = 0;
  std::uint64_t slow_path = 0;
  std::uint64_t shed = 0;
  std::uint64_t denied = 0;
};

// Sends one packet on each of the attacker's connections 101..100+count
// and hands them to the SN as one ingress batch.
burst_outcome flood_burst(shed_rig& rig, std::uint64_t count) {
  auto totals = [&rig] {
    burst_outcome t;
    for (std::size_t s = 0; s < rig.sn->worker_count(); ++s) {
      const terminus_stats& st = rig.sn->shard_terminus_stats(s);
      t.fast_path += st.fast_path;
      t.slow_path += st.slow_path;
      t.shed += st.shed;
    }
    t.denied = rig.ddos->denied();
    return t;
  };
  const burst_outcome before = totals();
  for (std::uint64_t i = 1; i <= count; ++i) {
    rig.attacker->mgr->send(rig.sn->node_id(),
                            data_header(rig.victim->node, rig.attacker->node, 100 + i),
                            to_bytes("attack"));
  }
  std::vector<std::pair<peer_id, bytes>> burst;
  for (bytes& d : rig.attacker->outbox) burst.emplace_back(rig.attacker->node, std::move(d));
  rig.attacker->outbox.clear();
  rig.ingest(burst);
  EXPECT_TRUE(rig.sn->wait_idle());
  rig.net.run();
  const burst_outcome after = totals();
  return {after.fast_path - before.fast_path, after.slow_path - before.slow_path,
          after.shed - before.shed, after.denied - before.denied};
}

TEST(DdosShed, ShedVerdictAgesOutAndFlowIsRejudged) {
  shed_rig rig(sn_config{.workers = 2, .slowpath_high_water = 4, .shed_ttl = 5ms});

  // Establish the attacker's pipe, then saturate with cold flows so some
  // shed with the TTL'd fail-closed drop. How many of them the 4-deep
  // budget judges before it sheds the rest depends on thread timing; every
  // check below holds for any split.
  rig.attacker->mgr->send(rig.sn->node_id(),
                          data_header(rig.victim->node, rig.attacker->node, 100),
                          to_bytes("attack"));
  pump(rig.net, *rig.sn, *rig.attacker);
  constexpr std::uint64_t kFlood = 400;
  const burst_outcome flood = flood_burst(rig, kFlood);
  ASSERT_EQ(flood.fast_path, 0u);
  ASSERT_EQ(flood.slow_path + flood.shed, kFlood);
  ASSERT_GT(flood.shed, 0u);
  EXPECT_EQ(flood.denied, flood.slow_path);  // judged = denied, and cached for good

  // Retry the whole flood, so the retried flows are the judged ones plus
  // every shed one. Within the shed TTL each rides a cached verdict on the
  // fast path — the judged flows their denial, the shed flows their TTL'd
  // drop — and the module is NOT consulted again (that's the whole point:
  // retries cost fast-path time, not slow-path budget).
  const burst_outcome within_ttl = flood_burst(rig, kFlood);
  EXPECT_EQ(within_ttl.fast_path, kFlood);
  EXPECT_EQ(within_ttl.slow_path, 0u);
  EXPECT_EQ(within_ttl.shed, 0u);
  EXPECT_EQ(within_ttl.denied, 0u);

  // Past the TTL the shed verdicts age out: exactly the shed flows miss the
  // cache again while the judged ones still hit their denial. The idle
  // slow path judges at least one of the returning flows — still denied,
  // but by policy now, not by congestion.
  rig.net.after(20ms, [] {});
  rig.net.run();
  const burst_outcome past_ttl = flood_burst(rig, kFlood);
  EXPECT_EQ(past_ttl.fast_path, flood.slow_path);
  EXPECT_EQ(past_ttl.slow_path + past_ttl.shed, flood.shed);
  EXPECT_GT(past_ttl.denied, 0u);
  EXPECT_EQ(past_ttl.denied, past_ttl.slow_path);
  EXPECT_EQ(payload_count(*rig.victim, "attack"), 0u);
}

TEST(DdosShed, AdmitCacheTtlForcesReadmission) {
  // Inline datapath: the verdict-lifetime behavior is independent of the
  // sharded machinery. Admit entries expire on the configured TTL and the
  // flow is re-judged — and re-admitted — without a delivery gap.
  shed_rig rig(sn_config{.workers = 0});
  rig.sn->env().set_config(ilp::svc::ddos_protect, "admit_cache_ttl_ms", "5");

  rig.legit->mgr->send(rig.sn->node_id(),
                       data_header(rig.victim->node, rig.legit->node, 1), to_bytes("legit"));
  pump(rig.net, *rig.sn, *rig.legit);
  rig.legit->mgr->send(rig.sn->node_id(),
                       data_header(rig.victim->node, rig.legit->node, 1), to_bytes("legit"));
  pump(rig.net, *rig.sn, *rig.legit);
  const auto warm = rig.sn->cache().stats();
  EXPECT_GE(warm.hits, 1u);  // second packet rode the cached admit

  rig.net.after(20ms, [] {});
  rig.net.run();
  rig.legit->mgr->send(rig.sn->node_id(),
                       data_header(rig.victim->node, rig.legit->node, 1), to_bytes("legit"));
  pump(rig.net, *rig.sn, *rig.legit);

  const auto aged = rig.sn->cache().stats();
  EXPECT_GE(aged.expired, warm.expired + 1);  // the admit verdict lapsed
  EXPECT_GE(aged.inserts, warm.inserts + 1);  // and was re-installed
  EXPECT_EQ(payload_count(*rig.victim, "legit"), 3u);  // no delivery gap
}

}  // namespace
}  // namespace interedge::core
