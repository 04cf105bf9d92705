// Fault-tolerant SN lifecycle, end to end over the deterministic simulator
// (DESIGN.md §10): checkpointed failover to a standby, keepalive-driven
// partition detection and reconnection, shedding under slow-path
// saturation, and scripted-fault determinism. This binary is also the
// sanitizer CI's fault-matrix target (tools/ci_sanitizers.sh).
#include <gtest/gtest.h>

#include <cstring>

#include "common/buf_pool.h"
#include "core/service_node.h"
#include "core/test_modules.h"
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

// Builds an SN on a fresh simulator node, or — when `takeover` names an
// existing node — on that node (the standby assuming a crashed primary's
// network identity; callers restart_node + set_handler).
std::unique_ptr<service_node> make_sn(simulation& net, const router* route, sn_config config,
                                      node_id takeover = sim::kInvalidNode) {
  const node_id node = takeover != sim::kInvalidNode ? takeover : net.add_node(nullptr);
  config.id = node;
  auto sn = std::make_unique<service_node>(
      config, net.sim_clock(),
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

ilp::ilp_header sink_header(ilp::connection_id conn) {
  ilp::ilp_header h;
  h.service = ilp::svc::null_service;
  h.connection = conn;
  h.flags = ilp::kFlagFromHost;
  return h;
}

// Pre-schedules liveness ticks for a host's pipe manager (the simulator
// equivalent of a timer loop; pre-scheduling keeps the queue drainable).
void schedule_host_liveness(simulation& net, sim_host& h, nanoseconds interval,
                            nanoseconds until) {
  for (auto t = net.now() + interval; t <= time_point(until); t += interval) {
    net.at(t, [mgr = h.mgr.get()] { mgr->liveness_tick(); });
  }
}

// The acceptance scenario: a primary SN crashes mid-traffic; a standby
// restores the latest checkpoint, assumes the primary's network identity,
// and traffic resumes over re-established pipes with zero slow-path hangs.
TEST(Failover, StandbyRestoresCheckpointAndResumesTraffic) {
  simulation net;
  testing::identity_router route;
  auto alice = make_host(net);
  auto bob = make_host(net);

  auto primary = make_sn(net, &route, sn_config{});
  primary->env().deploy(std::make_unique<testing::forwarder_module>());
  auto primary_sink = std::make_unique<testing::sink_module>();
  auto* primary_sink_raw = primary_sink.get();
  primary->env().deploy(std::move(primary_sink));
  const node_id sn_node = static_cast<node_id>(primary->node_id());

  // Checkpoints flow to the failover store every 10 ms.
  bytes latest_checkpoint;
  int checkpoints_taken = 0;
  primary->start_checkpointing(10ms, [&](bytes snap) {
    latest_checkpoint = std::move(snap);
    ++checkpoints_taken;
  });

  alice->mgr->enable_liveness(net.sim_clock());
  schedule_host_liveness(net, *alice, 10ms, 600ms);

  // Phase 1: warm traffic through the primary — forwarded deliveries to
  // bob plus stateful sink packets.
  for (int i = 0; i < 5; ++i) {
    alice->mgr->send(sn_node, delivery_header(bob->node, 1), to_bytes("pre"));
    alice->mgr->send(sn_node, sink_header(7), to_bytes("state"));
  }
  net.run_until(time_point(50ms));
  EXPECT_EQ(bob->received.size(), 5u);
  EXPECT_EQ(primary_sink_raw->counter(), 5);
  ASSERT_GE(checkpoints_taken, 1);
  ASSERT_FALSE(latest_checkpoint.empty());
  primary->stop_checkpointing();

  // Phase 2: crash the primary mid-traffic (packets in flight are lost).
  net.at(time_point(55ms), [&] {
    alice->mgr->send(sn_node, delivery_header(bob->node, 1), to_bytes("in-flight"));
    net.crash_node(sn_node);
  });
  net.run_until(time_point(100ms));
  EXPECT_GT(net.datagrams_dropped_faults(), 0u);
  const ilp::liveness_stats* st = alice->mgr->liveness_for(sn_node);
  ASSERT_NE(st, nullptr);
  EXPECT_TRUE(st->down);  // detected within the miss budget

  // Phase 3: the standby restores the latest checkpoint and takes over the
  // primary's network identity (IP takeover).
  auto standby = make_sn(net, &route, sn_config{}, sn_node);
  standby->env().deploy(std::make_unique<testing::forwarder_module>());
  auto standby_sink = std::make_unique<testing::sink_module>();
  auto* standby_sink_raw = standby_sink.get();
  standby->env().deploy(std::move(standby_sink));
  standby->restore_full(latest_checkpoint);
  net.restart_node(sn_node);

  // Module state survived the crash...
  EXPECT_EQ(standby_sink_raw->counter(), 5);
  // ...and the decision cache came back warm.
  EXPECT_GT(standby->cache().size(), 0u);

  // Phase 4: alice's keepalives reconnect (fresh handshake = forced rekey)
  // and traffic resumes on the re-established pipe.
  net.run_until(time_point(400ms));
  ASSERT_FALSE(alice->mgr->liveness_for(sn_node)->down);
  EXPECT_GE(alice->mgr->liveness_for(sn_node)->reconnect_attempts, 1u);

  for (int i = 0; i < 3; ++i) {
    alice->mgr->send(sn_node, delivery_header(bob->node, 1), to_bytes("post"));
    alice->mgr->send(sn_node, sink_header(7), to_bytes("more-state"));
  }
  net.run_until(time_point(600ms));
  net.run();  // drain any straggling deliveries

  EXPECT_EQ(bob->received.size(), 8u);  // 5 pre-crash + 3 post-failover
  EXPECT_EQ(standby_sink_raw->counter(), 8);  // continued from the checkpoint
  // Zero slow-path hangs: nothing stuck in flight on the standby.
  EXPECT_FALSE(standby->terminus().busy());
  EXPECT_EQ(standby->terminus().in_flight(), 0u);
  // The warm cache served the pre-crash flow without a module round trip.
  EXPECT_GT(standby->datapath_stats().fast_path, 0u);
}

TEST(Failover, SnKeepalivesSurvivePartitionAndReconnect) {
  // Two SNs peered over a long-lived pipe; the link partitions and heals.
  // The SN-side keepalive config (driven off its own scheduler) detects the
  // partition within the miss budget and reconnects with backoff.
  simulation net;
  testing::identity_router route;
  auto a = make_sn(net, &route, sn_config{.keepalive_interval = 10ms});
  auto b = make_sn(net, &route, sn_config{});
  const node_id an = static_cast<node_id>(a->node_id());
  const node_id bn = static_cast<node_id>(b->node_id());

  std::vector<bool> transitions;
  a->pipes().set_peer_status_hook([&](peer_id, bool up) { transitions.push_back(up); });

  a->peer_with(b->node_id());
  net.run_until(time_point(5ms));
  ASSERT_TRUE(a->pipes().has_pipe(b->node_id()));

  net.at(time_point(20ms), [&] { net.partition(an, bn); });
  net.at(time_point(200ms), [&] { net.heal(an, bn); });
  net.run_until(time_point(800ms));

  const ilp::liveness_stats* st = a->pipes().liveness_for(b->node_id());
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->times_down, 1u);
  EXPECT_FALSE(st->down);
  EXPECT_GE(st->reconnect_attempts, 1u);
  EXPECT_TRUE(a->pipes().has_pipe(b->node_id()));
  // Hook saw the initial establish (up), the partition (down), and the
  // reconnect (up) — in that order.
  EXPECT_EQ(transitions, (std::vector<bool>{true, false, true}));

  // Stop the recurring tick so the event queue drains.
  a->stop_liveness();
  net.run();
}

TEST(Failover, SaturatedSlowPathShedsInsteadOfBlocking) {
  // Parallel-mode SN with a tiny in-flight budget: a burst of distinct
  // cold flows lands in the shard rings before the control thread pumps
  // the slow path once, so the shards must shed (counted) instead of
  // blocking — and every packet is still accounted for.
  simulation net;
  testing::identity_router route;
  auto server = make_host(net);
  // Declared before the SN: its shards hold slab views until they are
  // done with them.
  buf::buf_pool pool(buf::pool_config{.slab_size = 2048, .slab_count = 512});
  auto sn = make_sn(net, &route,
                    sn_config{.workers = 2, .slowpath_high_water = 4, .shed_ttl = 5ms});
  sn->env().deploy(std::make_unique<testing::forwarder_module>());

  // A client whose pipe manager writes sealed datagrams into an outbox
  // instead of the simulator, so the whole flood can be handed to the SN
  // as ONE ingress batch.
  const node_id client_node = net.add_node(nullptr);
  std::vector<bytes> outbox;
  ilp::pipe_manager client(
      client_node, [&outbox](peer_id, bytes d) { outbox.push_back(std::move(d)); },
      [](peer_id, const ilp::ilp_header&, bytes) {});
  net.set_handler(client_node,
                  [&client](node_id from, const bytes& data) { client.on_datagram(from, data); });

  // Handshake: shuttle the client's init by hand; the SN's response flows
  // back over the simulator and flushes the queued first packet.
  client.send(sn->node_id(), delivery_header(server->node, 0), to_bytes("warm"));
  ASSERT_EQ(outbox.size(), 1u);
  sn->on_datagram(client_node, outbox[0]);
  outbox.clear();
  net.run();
  ASSERT_TRUE(client.has_pipe(sn->node_id()));

  constexpr int kFlood = 400;
  for (int i = 1; i <= kFlood; ++i) {
    client.send(sn->node_id(), delivery_header(server->node, i), to_bytes("x"));
  }
  std::vector<std::pair<peer_id, buf::pkt_view>> burst;
  for (const bytes& d : outbox) {
    buf::slab_ref slab = pool.try_alloc();
    ASSERT_TRUE(slab);
    std::memcpy(slab.data(), d.data(), d.size());
    burst.emplace_back(client_node, buf::pkt_view(std::move(slab), 0, d.size()));
  }
  ASSERT_GE(burst.size(), static_cast<std::size_t>(kFlood));
  sn->on_datagram_views(burst);
  ASSERT_TRUE(sn->wait_idle());
  net.run();  // forwarded packets reach the server through the simulator

  metrics_registry merged;
  sn->merge_metrics_into(merged);
  const auto total_of = [&merged](const char* name) {
    double total = 0;
    for (const auto& s : merged.samples()) {
      if (s.name == name) total += s.value;
    }
    return static_cast<std::uint64_t>(total);
  };
  const std::uint64_t forwarded = total_of("sn.tx.forwarded");
  const std::uint64_t dropped = total_of("sn.drop.pkts");
  const std::uint64_t shed = total_of("sn.slowpath.shed");
  // Conservation: every packet of the burst either forwarded or
  // shed-dropped; nothing wedged or lost.
  EXPECT_EQ(forwarded + dropped, burst.size());
  EXPECT_EQ(shed, dropped);  // fail-closed sheds are the only drops here
  // The in-flight budget was tiny and the flood cold: shedding kicked in.
  EXPECT_GT(shed, 0u);
  // Zero hangs: every packet a shard received came out one way or another.
  std::uint64_t received = 0, resolved = 0;
  for (std::size_t s = 0; s < sn->worker_count(); ++s) {
    const auto& st = sn->shard_terminus_stats(s);
    received += st.received;
    resolved += st.fast_path + st.slow_path + st.shed;
  }
  EXPECT_EQ(received, burst.size());
  EXPECT_EQ(resolved, received);
}

TEST(Failover, ScriptedFaultScheduleReplaysDeterministically) {
  // The same seed + the same fault script must produce the identical run —
  // counters and all — which is what makes fault regressions bisectable.
  const std::string script =
      "# partition the SN away from the client, then heal\n"
      "30 partition 0 2\n"
      "120 heal 0 2\n"
      "200 crash 1\n"
      "260 restart 1\n";
  auto run_one = [&script]() {
    simulation net(42);
    testing::identity_router route;
    auto client = make_host(net);
    auto server = make_host(net);
    auto sn = make_sn(net, &route, sn_config{});
    sn->env().deploy(std::make_unique<testing::forwarder_module>());
    net.set_default_link({.latency = 500us, .loss_rate = 0.05, .duplicate_rate = 0.02,
                          .reorder_rate = 0.02});
    net.schedule_faults(simulation::parse_fault_schedule(script));

    client->mgr->enable_liveness(net.sim_clock());
    for (auto t = 10ms; t <= 400ms; t += 10ms) {
      net.at(time_point(t), [mgr = client->mgr.get()] { mgr->liveness_tick(); });
    }
    for (auto t = 5ms; t <= 400ms; t += 5ms) {
      net.at(time_point(t), [&net, c = client.get(), s = server.get(), raw = sn.get()] {
        c->mgr->send(raw->node_id(), delivery_header(s->node, 1), to_bytes("tick"));
      });
    }
    net.run();
    return std::tuple(net.datagrams_delivered(), net.datagrams_dropped(),
                      net.datagrams_dropped_faults(), net.datagrams_duplicated(),
                      net.datagrams_reordered(), server->received.size(),
                      sn->datapath_stats().fast_path, sn->datapath_stats().slow_path);
  };
  EXPECT_EQ(run_one(), run_one());
}

}  // namespace
}  // namespace interedge::core
