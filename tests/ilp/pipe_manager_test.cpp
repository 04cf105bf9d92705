// Pipe manager tests run two managers over the deterministic simulator.
#include "ilp/pipe_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/serial.h"
#include "simnet/simulation.h"

namespace interedge::ilp {
namespace {

using sim::node_id;
using sim::simulation;

struct element {
  node_id node = 0;
  std::unique_ptr<pipe_manager> mgr;
  std::vector<std::pair<ilp_header, bytes>> received;
};

// Wires a pipe_manager to a simulator node.
std::unique_ptr<element> make_element(simulation& net) {
  auto e = std::make_unique<element>();
  e->node = net.add_node(nullptr);
  e->mgr = std::make_unique<pipe_manager>(
      e->node,
      [&net, node = e->node](peer_id peer, bytes datagram) {
        net.send(node, static_cast<node_id>(peer), std::move(datagram));
      },
      [raw = e.get()](peer_id, const ilp_header& h, bytes payload) {
        raw->received.emplace_back(h, std::move(payload));
      });
  net.set_handler(e->node, [raw = e.get()](node_id from, const bytes& data) {
    raw->mgr->on_datagram(from, data);
  });
  return e;
}

ilp_header header_for(connection_id conn) {
  ilp_header h;
  h.service = svc::null_service;
  h.connection = conn;
  return h;
}

TEST(PipeManager, EstablishesOnFirstSend) {
  simulation net;
  auto a = make_element(net);
  auto b = make_element(net);

  a->mgr->send(b->node, header_for(1), to_bytes("hello"));
  EXPECT_EQ(a->mgr->pending_handshakes(), 1u);
  net.run();

  EXPECT_TRUE(a->mgr->has_pipe(b->node));
  EXPECT_TRUE(b->mgr->has_pipe(a->node));
  ASSERT_EQ(b->received.size(), 1u);
  EXPECT_EQ(to_string(b->received[0].second), "hello");
  EXPECT_EQ(a->mgr->pending_handshakes(), 0u);
}

TEST(PipeManager, QueuedPacketsFlushInOrder) {
  simulation net;
  auto a = make_element(net);
  auto b = make_element(net);

  for (int i = 0; i < 5; ++i) {
    a->mgr->send(b->node, header_for(static_cast<connection_id>(i)), to_bytes("m"));
  }
  net.run();
  ASSERT_EQ(b->received.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(b->received[i].first.connection, static_cast<connection_id>(i));
  }
}

TEST(PipeManager, BidirectionalTraffic) {
  simulation net;
  auto a = make_element(net);
  auto b = make_element(net);

  a->mgr->send(b->node, header_for(1), to_bytes("ping"));
  net.run();
  b->mgr->send(a->node, header_for(2), to_bytes("pong"));
  net.run();

  ASSERT_EQ(a->received.size(), 1u);
  EXPECT_EQ(to_string(a->received[0].second), "pong");
  // One handshake total (the reverse direction reuses the same pipe).
  EXPECT_EQ(a->mgr->pipe_count(), 1u);
  EXPECT_EQ(b->mgr->pipe_count(), 1u);
}

TEST(PipeManager, SimultaneousOpenConvergesToOnePipe) {
  simulation net;
  auto a = make_element(net);
  auto b = make_element(net);

  // Both sides send before any handshake completes.
  a->mgr->send(b->node, header_for(1), to_bytes("from-a"));
  b->mgr->send(a->node, header_for(2), to_bytes("from-b"));
  net.run();

  EXPECT_EQ(a->mgr->pipe_count(), 1u);
  EXPECT_EQ(b->mgr->pipe_count(), 1u);
  ASSERT_EQ(b->received.size(), 1u);
  EXPECT_EQ(to_string(b->received[0].second), "from-a");
  ASSERT_EQ(a->received.size(), 1u);
  EXPECT_EQ(to_string(a->received[0].second), "from-b");
}

TEST(PipeManager, ExplicitConnectEstablishesIdlePipe) {
  simulation net;
  auto a = make_element(net);
  auto b = make_element(net);
  a->mgr->connect(b->node);
  net.run();
  EXPECT_TRUE(a->mgr->has_pipe(b->node));
  EXPECT_TRUE(b->mgr->has_pipe(a->node));
  EXPECT_TRUE(b->received.empty());
}

TEST(PipeManager, ManyPeersManyPipes) {
  simulation net;
  auto hub = make_element(net);
  std::vector<std::unique_ptr<element>> spokes;
  for (int i = 0; i < 20; ++i) spokes.push_back(make_element(net));

  for (auto& s : spokes) {
    hub->mgr->send(s->node, header_for(9), to_bytes("fanout"));
  }
  net.run();
  EXPECT_EQ(hub->mgr->pipe_count(), 20u);
  for (auto& s : spokes) {
    ASSERT_EQ(s->received.size(), 1u);
  }
}

TEST(PipeManager, RotateAllKeepsTrafficFlowing) {
  simulation net;
  auto a = make_element(net);
  auto b = make_element(net);
  a->mgr->send(b->node, header_for(1), to_bytes("pre"));
  net.run();

  a->mgr->rotate_all();
  b->mgr->rotate_all();
  a->mgr->send(b->node, header_for(2), to_bytes("post"));
  net.run();

  ASSERT_EQ(b->received.size(), 2u);
  EXPECT_EQ(to_string(b->received[1].second), "post");
}

TEST(PipeManager, DataBeforePipeIsDropped) {
  simulation net;
  auto a = make_element(net);
  auto b = make_element(net);
  // Craft a data message without a pipe: kind=3 plus garbage.
  bytes fake{static_cast<std::uint8_t>(msg_kind::data), 1, 2, 3};
  net.send(a->node, b->node, fake);
  net.run();
  EXPECT_TRUE(b->received.empty());
}

TEST(PipeManager, MalformedHandshakeIgnored) {
  simulation net;
  auto a = make_element(net);
  auto b = make_element(net);
  bytes bad_init{static_cast<std::uint8_t>(msg_kind::handshake_init), 0x01};
  net.send(a->node, b->node, bad_init);
  net.run();
  EXPECT_EQ(b->mgr->pipe_count(), 0u);
}

// Every datagram the manager refuses is counted in ilp.rx.rejected, not
// only logged, on the per-datagram and the batch entry alike.
TEST(PipeManager, RefusedDatagramsAreCounted) {
  metrics_registry reg;
  pipe_manager m(1, [](peer_id, bytes) {}, [](peer_id, const ilp_header&, bytes) {});
  m.set_metrics(reg);
  const counter& rejected = reg.get_counter("ilp.rx.rejected");

  m.on_datagram(2, {});
  EXPECT_EQ(rejected.value(), 1u);  // empty

  bytes unknown{0x7f, 1, 2, 3};
  m.on_datagram(2, unknown);
  EXPECT_EQ(rejected.value(), 2u);  // unknown kind

  const bytes bad_init{static_cast<std::uint8_t>(msg_kind::handshake_init), 0x01};
  m.on_datagram(2, bad_init);
  EXPECT_EQ(rejected.value(), 3u);  // malformed handshake init

  m.connect(3);  // our init is pending, so the response below gets parsed
  const bytes bad_resp{static_cast<std::uint8_t>(msg_kind::handshake_resp), 0x01};
  m.on_datagram(3, bad_resp);
  EXPECT_EQ(rejected.value(), 4u);  // malformed handshake response
  EXPECT_EQ(m.pipe_count(), 0u);

  m.set_batch_deliver([](peer_id, std::span<opened_packet>) {});
  const byte_span batch[] = {byte_span(), byte_span(unknown)};
  m.on_datagram_batch_mut(2, batch);
  EXPECT_EQ(rejected.value(), 6u);

  // A flood is counted in full but logged only at each reason's 1st, 2nd,
  // 4th, 8th, ... refusal: 1000 more empties (totals 3 to 1002) log at 4,
  // 8, ..., 512 — 8 lines, within the 11 a fresh reason could print.
  ::testing::internal::CaptureStderr();
  for (int i = 0; i < 1000; ++i) m.on_datagram(2, {});
  const std::string log = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(rejected.value(), 1006u);
  std::size_t lines = 0;
  for (std::size_t pos = log.find("drop=empty"); pos != std::string::npos;
       pos = log.find("drop=empty", pos + 1)) {
    ++lines;
  }
  EXPECT_LE(lines, 11u);
  EXPECT_EQ(lines, 8u);
  EXPECT_NE(log.find("total=512"), std::string::npos);
}

TEST(PipeManager, LossyHandshakeRetriesViaResend) {
  // Packets (including handshakes) can be lost; a later send retries the
  // handshake because the first one never completed. This test drops ALL
  // packets initially, then heals the link.
  simulation net;
  auto a = make_element(net);
  auto b = make_element(net);
  net.set_link(a->node, b->node, {.loss_rate = 1.0});

  a->mgr->send(b->node, header_for(1), to_bytes("lost"));
  net.run();
  EXPECT_FALSE(a->mgr->has_pipe(b->node));

  net.set_link(a->node, b->node, {.loss_rate = 0.0});
  // The pending handshake is still outstanding; a fresh connect() is a
  // no-op but sending again queues more data. Re-issue the handshake by
  // simulating the host-level retry.
  a->mgr->send(b->node, header_for(2), to_bytes("queued"));
  EXPECT_EQ(a->mgr->pending_handshakes(), 1u);
  // No response will ever come for the lost init; upper layers re-connect.
  // (Timer-driven retry lives in the host stack, tested there.)
}

// ---- pipe liveness (DESIGN.md §10) --------------------------------------

using namespace std::chrono_literals;

// Drives the managers' liveness off the simulator clock: pre-schedules a
// tick per interval up to `until`, then runs to that point. Pre-scheduling
// (rather than self-rescheduling events) keeps the queue drainable, so
// tests can keep using net.run() afterwards.
void drive_liveness(simulation& net, std::initializer_list<element*> elems,
                    nanoseconds interval, nanoseconds until) {
  for (element* e : elems) {
    e->mgr->enable_liveness(net.sim_clock());
  }
  for (auto t = net.now() + interval; t <= time_point(until); t += interval) {
    for (element* e : elems) {
      net.at(t, [e] { e->mgr->liveness_tick(); });
    }
  }
  net.run_until(time_point(until));
}

TEST(PipeLiveness, ProbesAckedAndRttTracked) {
  simulation net;
  auto a = make_element(net);
  auto b = make_element(net);
  net.set_link_symmetric(a->node, b->node, {.latency = 1ms});
  a->mgr->connect(b->node);
  net.run();

  drive_liveness(net, {a.get(), b.get()}, 10ms, 100ms);

  const liveness_stats* st = a->mgr->liveness_for(b->node);
  ASSERT_NE(st, nullptr);
  EXPECT_GE(st->probes_sent, 5u);
  EXPECT_GE(st->acks_received, 4u);
  EXPECT_EQ(st->missed, 0u);
  EXPECT_FALSE(st->down);
  // RTT EWMA converges to the 2ms round trip.
  EXPECT_NEAR(static_cast<double>(st->rtt_ns), 2e6, 5e5);
  // Keepalives are invisible to the data plane.
  EXPECT_TRUE(a->received.empty());
  EXPECT_TRUE(b->received.empty());
}

TEST(PipeLiveness, MissBudgetDeclaresPartitionedPeerDown) {
  simulation net;
  auto a = make_element(net);
  auto b = make_element(net);
  a->mgr->connect(b->node);
  net.run();

  std::vector<std::pair<peer_id, bool>> transitions;
  a->mgr->set_peer_status_hook(
      [&](peer_id peer, bool up) { transitions.emplace_back(peer, up); });

  net.partition(a->node, b->node);
  drive_liveness(net, {a.get()}, 10ms, 60ms);

  const liveness_stats* st = a->mgr->liveness_for(b->node);
  ASSERT_NE(st, nullptr);
  EXPECT_TRUE(st->down);
  EXPECT_EQ(st->times_down, 1u);
  EXPECT_GE(st->missed, 3u);  // the default miss budget
  EXPECT_FALSE(a->mgr->has_pipe(b->node));
  ASSERT_GE(transitions.size(), 1u);
  EXPECT_EQ(transitions[0], std::make_pair(peer_id{b->node}, false));
  // Detection within the budget: 3 missed 10ms probes ≈ 40ms of partition.
  EXPECT_LE(net.now().time_since_epoch(), 60ms);
}

TEST(PipeLiveness, ReconnectsAfterHealWithFreshKeys) {
  simulation net;
  auto a = make_element(net);
  auto b = make_element(net);
  a->mgr->connect(b->node);
  net.run();
  const std::uint64_t handshakes_before = a->mgr->handshakes_completed();

  std::vector<bool> transitions;
  a->mgr->set_peer_status_hook([&](peer_id, bool up) { transitions.push_back(up); });

  net.partition(a->node, b->node);
  net.after(200ms, [&] { net.heal(a->node, b->node); });
  drive_liveness(net, {a.get(), b.get()}, 10ms, 1000ms);

  const liveness_stats* st = a->mgr->liveness_for(b->node);
  ASSERT_NE(st, nullptr);
  EXPECT_FALSE(st->down);
  EXPECT_GE(st->reconnect_attempts, 1u);
  EXPECT_TRUE(a->mgr->has_pipe(b->node));
  // The recovery ran a fresh handshake — the forced rekey.
  EXPECT_GT(a->mgr->handshakes_completed(), handshakes_before);
  // down, then up again.
  ASSERT_GE(transitions.size(), 2u);
  EXPECT_FALSE(transitions.front());
  EXPECT_TRUE(transitions.back());

  // Traffic flows on the re-established pipe.
  a->mgr->send(b->node, header_for(5), to_bytes("post-heal"));
  net.run();
  ASSERT_EQ(b->received.size(), 1u);
  EXPECT_EQ(to_string(b->received[0].second), "post-heal");
}

TEST(PipeLiveness, BackoffGrowsWhilePeerStaysDown) {
  simulation net;
  auto a = make_element(net);
  auto b = make_element(net);
  a->mgr->connect(b->node);
  net.run();

  net.partition(a->node, b->node);
  drive_liveness(net, {a.get()}, 10ms, 2000ms);

  const liveness_stats* st = a->mgr->liveness_for(b->node);
  ASSERT_NE(st, nullptr);
  EXPECT_TRUE(st->down);
  EXPECT_GE(st->reconnect_attempts, 2u);
  // Exponential backoff: attempts over 2s are far fewer than the ~196
  // tick opportunities after detection.
  EXPECT_LE(st->reconnect_attempts, 16u);
}

TEST(PipeLiveness, DataTrafficSuppressesFalsePositives) {
  // A peer that answers data (so its rx path works) must not be declared
  // down just because ticks outpace acks: authenticated data resets the
  // miss count. Model an asymmetric delay where acks straggle.
  simulation net;
  auto a = make_element(net);
  auto b = make_element(net);
  net.set_link(a->node, b->node, {.latency = 1ms});
  net.set_link(b->node, a->node, {.latency = 25ms});  // acks straggle
  a->mgr->connect(b->node);
  net.run();

  a->mgr->enable_liveness(net.sim_clock());
  // b sends data to a every 5 ms, keeping the pipe visibly alive at a.
  std::function<void()> chatter = [&] {
    b->mgr->send(a->node, header_for(1), to_bytes("d"));
    net.after(5ms, chatter);
  };
  net.after(5ms, chatter);
  std::function<void()> tick = [&] {
    a->mgr->liveness_tick();
    net.after(10ms, tick);
  };
  net.after(10ms, tick);
  net.run_until(time_point(200ms));

  const liveness_stats* st = a->mgr->liveness_for(b->node);
  ASSERT_NE(st, nullptr);
  EXPECT_FALSE(st->down);
  EXPECT_EQ(st->times_down, 0u);
}

TEST(PipeLiveness, ProbeOnWireIsOpaque) {
  // Keepalives are sealed like data: a tap must never see plaintext probe
  // metadata (the sequence number lives in an encrypted header).
  simulation net;
  auto a = make_element(net);
  auto b = make_element(net);
  a->mgr->connect(b->node);
  net.run();

  std::vector<bytes> wire;
  net.set_tap([&](node_id, node_id, const bytes& d) { wire.push_back(d); });
  a->mgr->enable_liveness(net.sim_clock());
  a->mgr->liveness_tick();
  net.run();

  ASSERT_GE(wire.size(), 2u);  // probe + ack
  EXPECT_EQ(wire[0][0], static_cast<std::uint8_t>(msg_kind::keepalive));
  EXPECT_EQ(wire[1][0], static_cast<std::uint8_t>(msg_kind::keepalive_ack));
  // Beyond the kind byte the messages are ciphertext — no fixed plaintext
  // marker survives on the wire (PSP-encrypted header + empty payload).
  const liveness_stats* st = a->mgr->liveness_for(b->node);
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->acks_received, 1u);
}

// ---- egress queue ------------------------------------------------------

// The IV of a sealed data message: kind byte, varint framing, spi, iv.
std::uint64_t iv_of(const bytes& datagram) {
  reader r(const_byte_span(datagram).subspan(1));
  r.varint();
  r.u32();
  return r.u64();
}

// A sender whose two egress hooks write one log (and pass the datagrams
// on to the simulator), so the log shows the order datagrams left in.
struct logged_sender {
  struct entry {
    bool gathered;  // through the gather hook (a queued send)
    peer_id to;
    bytes wire;
  };
  node_id node = 0;
  std::unique_ptr<pipe_manager> mgr;
  std::vector<entry> log;
};

std::unique_ptr<logged_sender> make_logged_sender(simulation& net) {
  auto s = std::make_unique<logged_sender>();
  s->node = net.add_node(nullptr);
  s->mgr = std::make_unique<pipe_manager>(
      s->node,
      [&net, raw = s.get()](peer_id peer, bytes datagram) {
        raw->log.push_back({false, peer, datagram});
        net.send(raw->node, static_cast<node_id>(peer), std::move(datagram));
      },
      [](peer_id, const ilp_header&, bytes) {});
  s->mgr->set_send_gather([&net, raw = s.get()](peer_id peer, const_byte_span head,
                                                const_byte_span payload) {
    bytes wire(head.begin(), head.end());
    wire.insert(wire.end(), payload.begin(), payload.end());
    raw->log.push_back({true, peer, wire});
    net.send(raw->node, static_cast<node_id>(peer), std::move(wire));
  });
  net.set_handler(s->node, [raw = s.get()](node_id from, const bytes& data) {
    raw->mgr->on_datagram(from, data);
  });
  return s;
}

// queue_span to three peers, interleaved with a send() and a handshake:
// every datagram reaches the hooks in call order, each pipe's IVs rise by
// one in queue order, and the receivers open every datagram to the sent
// header and payload. A peer without a pipe gets its packet after the
// handshake, from an owned copy.
TEST(PipeManagerQueue, DatagramsLeaveInCallOrder) {
  simulation net;
  auto a = make_logged_sender(net);
  auto b = make_element(net);
  auto c = make_element(net);
  auto d = make_element(net);
  auto e = make_element(net);  // no pipe until the handshake below
  for (element* p : {b.get(), c.get(), d.get()}) a->mgr->connect(p->node);
  net.run();
  a->log.clear();

  // Payloads live until the flush; header objects die at once.
  std::vector<bytes> payloads;
  for (int i = 0; i < 9; ++i) payloads.push_back(to_bytes("payload-" + std::to_string(i)));
  auto queue = [&](element& to, int i) {
    a->mgr->queue_span(to.node, header_for(static_cast<connection_id>(i)), payloads[i]);
  };

  queue(*b, 0);
  queue(*c, 1);
  EXPECT_TRUE(a->log.empty());  // queued, not sent
  a->mgr->send(d->node, header_for(2), payloads[2]);  // flushes 0 and 1 first
  queue(*b, 3);
  queue(*d, 4);
  queue(*c, 5);
  a->mgr->connect(e->node);  // the handshake init flushes 3, 4 and 5 first
  bytes owned = payloads[6];
  a->mgr->queue_span(e->node, header_for(6), owned);  // cold path: an owned copy
  std::fill(owned.begin(), owned.end(), 0);
  queue(*b, 7);
  a->mgr->flush();
  net.run();  // e answers; the owned copy leaves after the handshake

  struct expect {
    bool gathered;
    peer_id to;
    int i;  // payload index; -1 for the handshake init
  };
  const std::vector<expect> order = {
      {true, b->node, 0}, {true, c->node, 1}, {false, d->node, 2}, {true, b->node, 3},
      {true, d->node, 4}, {true, c->node, 5}, {false, e->node, -1}, {true, b->node, 7},
      {false, e->node, 6}};
  ASSERT_EQ(a->log.size(), order.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    EXPECT_EQ(a->log[k].gathered, order[k].gathered) << k;
    EXPECT_EQ(a->log[k].to, order[k].to) << k;
    const auto kind = static_cast<msg_kind>(a->log[k].wire[0]);
    EXPECT_EQ(kind, order[k].i < 0 ? msg_kind::handshake_init : msg_kind::data) << k;
  }
  // Each pipe's IVs rise by one in the order its packets were queued.
  EXPECT_EQ(iv_of(a->log[0].wire), 0u);  // b
  EXPECT_EQ(iv_of(a->log[3].wire), 1u);
  EXPECT_EQ(iv_of(a->log[7].wire), 2u);
  EXPECT_EQ(iv_of(a->log[1].wire), 0u);  // c
  EXPECT_EQ(iv_of(a->log[5].wire), 1u);
  EXPECT_EQ(iv_of(a->log[2].wire), 0u);  // d
  EXPECT_EQ(iv_of(a->log[4].wire), 1u);
  EXPECT_EQ(iv_of(a->log[8].wire), 0u);  // e's new pipe

  // Every receiver opens its datagrams to the sent header and payload.
  auto received = [](const element& el) {
    std::vector<std::pair<connection_id, std::string>> out;
    for (const auto& [h, p] : el.received) out.emplace_back(h.connection, to_string(p));
    return out;
  };
  using got = std::vector<std::pair<connection_id, std::string>>;
  EXPECT_EQ(received(*b), (got{{0, "payload-0"}, {3, "payload-3"}, {7, "payload-7"}}));
  EXPECT_EQ(received(*c), (got{{1, "payload-1"}, {5, "payload-5"}}));
  EXPECT_EQ(received(*d), (got{{2, "payload-2"}, {4, "payload-4"}}));
  EXPECT_EQ(received(*e), (got{{6, "payload-6"}}));
  EXPECT_EQ(a->mgr->stats_for(b->node)->sealed, 3u);
}

// A send hook that re-enters flush() would hand out a queue the outer
// flush is still walking: it throws instead.
TEST(PipeManagerQueue, FlushIsNotReentrant) {
  simulation net;
  auto a = make_logged_sender(net);
  auto b = make_element(net);
  a->mgr->connect(b->node);
  net.run();
  a->mgr->set_send_gather([&](peer_id, const_byte_span, const_byte_span) { a->mgr->flush(); });
  const bytes payload = to_bytes("x");
  a->mgr->queue_span(b->node, header_for(1), payload);
  EXPECT_THROW(a->mgr->flush(), std::logic_error);
  a->mgr->flush();  // the queue was dropped with the throw: nothing left to hand out
}

}  // namespace
}  // namespace interedge::ilp
