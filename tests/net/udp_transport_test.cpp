// Real-socket tests: the same InterEdge components that run on the
// simulator run over actual UDP datagrams on localhost.
#include "net/udp_transport.h"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/service_node.h"
#include "core/test_modules.h"
#include "host/host_stack.h"
#include "ilp/pipe_manager.h"
#include "services/clients/pubsub_client.h"
#include "services/pubsub.h"

namespace interedge::net {
namespace {

using namespace std::chrono_literals;

TEST(UdpEndpoint, BindsEphemeralPort) {
  udp_endpoint a;
  EXPECT_GT(a.port(), 0);
  udp_endpoint b;
  EXPECT_NE(a.port(), b.port());
}

TEST(UdpEndpoint, SendReceiveBetweenEndpoints) {
  udp_endpoint a, b;
  a.add_peer(2, "127.0.0.1", b.port());
  b.add_peer(1, "127.0.0.1", a.port());

  ASSERT_TRUE(a.send(2, to_bytes("over the wire")));

  event_loop loop;
  std::string got;
  loop.attach(b, [&](peer_id from, const_byte_span data) {
    EXPECT_EQ(from, 1u);
    got = to_string(data);
  });
  loop.run_until_quiet(20ms, 2000ms);
  EXPECT_EQ(got, "over the wire");
}

// Regression: a recvmmsg that drains the socket mid-batch (the EAGAIN
// happens inside the batch, reported only as a short count) must be
// visible as a counter, and an empty-socket attempt counted separately.
TEST(UdpEndpoint, RecvBatchCountsPartialDrains) {
  udp_endpoint a, b;
  a.add_peer(2, "127.0.0.1", b.port());
  b.add_peer(1, "127.0.0.1", a.port());

  std::vector<std::pair<peer_id, buf::pkt_view>> got;
  EXPECT_EQ(b.recv_batch_views(udp_endpoint::kBatchMax, got), 0u);
  EXPECT_EQ(b.rx_empty(), 1u);
  EXPECT_EQ(b.rx_partial_batches(), 0u);

  constexpr std::size_t kSent = 5;
  for (std::size_t i = 0; i < kSent; ++i) {
    ASSERT_TRUE(a.send(2, to_bytes("p" + std::to_string(i))));
  }
  for (int attempt = 0; attempt < 2000 && got.size() < kSent; ++attempt) {
    if (b.recv_batch_views(udp_endpoint::kBatchMax, got) == 0) {
      std::this_thread::sleep_for(1ms);
    }
  }
  ASSERT_EQ(got.size(), kSent);
  // 5 < kBatchMax: at least one call came up short against a dry socket.
  EXPECT_GE(b.rx_partial_batches(), 1u);
  EXPECT_EQ(b.rx_errors(), 0u);
  EXPECT_EQ(b.received(), kSent);
}

// The transient-send retry loop (EAGAIN/EWOULDBLOCK absorbed, bounded at
// kSendRetries) and its accounting: send_again() moves in lockstep with
// the mirrored net.udp.send_again counter, and a burst against a squeezed
// socket buffer returns instead of wedging. Loopback usually drains too
// fast to force a specific EAGAIN count, so the assertions pin the
// accounting invariants rather than an exact number.
TEST(UdpEndpoint, SendAgainBoundedRetryAndTelemetry) {
  udp_endpoint a, b;
  a.add_peer(2, "127.0.0.1", b.port());

  metrics_registry reg;
  a.enable_telemetry(reg);
  EXPECT_EQ(a.send_again(), 0u);
  EXPECT_EQ(reg.get_counter("net.udp.send_again").value(), 0u);

  // Squeeze the send buffer to its kernel floor so big bursts can hit a
  // full buffer mid-batch.
  const int tiny = 1;
  ASSERT_EQ(::setsockopt(a.fd(), SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny)), 0);

  const std::vector<bytes> burst(2 * udp_endpoint::kBatchMax, bytes(1400, 0xab));
  std::uint64_t accepted = 0;
  for (int round = 0; round < 8; ++round) {
    accepted += a.send_batch(2, burst);  // bounded retry: must return
  }
  EXPECT_LE(accepted, 8 * burst.size());
  EXPECT_EQ(a.sent(), accepted);  // only kernel-accepted datagrams count
  // Every transient the retry loop absorbed is mirrored to the metric.
  EXPECT_EQ(reg.get_counter("net.udp.send_again").value(), a.send_again());

  // The single-datagram path shares the loop and the counters.
  ASSERT_TRUE(a.send(2, to_bytes("one more")));
  EXPECT_EQ(a.sent(), accepted + 1);
  EXPECT_EQ(reg.get_counter("net.udp.send_again").value(), a.send_again());
}

TEST(UdpEndpoint, ReusePortSharesOneBinding) {
  udp_endpoint first(udp_config{.reuse_port = true});
  udp_endpoint second(udp_config{.port = first.port(), .reuse_port = true});
  EXPECT_EQ(second.port(), first.port());
  // Without SO_REUSEPORT the same bind must fail loudly, not silently.
  EXPECT_THROW(udp_endpoint third(udp_config{.port = first.port()}), std::runtime_error);
}

TEST(UdpEndpoint, UnknownPeerSendFails) {
  udp_endpoint a;
  EXPECT_FALSE(a.send(99, to_bytes("x")));
}

TEST(UdpEndpoint, UnknownSourceDropped) {
  udp_endpoint a, stranger;
  // `a` has no peers registered; stranger knows a's address.
  stranger.add_peer(1, "127.0.0.1", a.port());
  stranger.send(1, to_bytes("who dis"));

  event_loop loop;
  int delivered = 0;
  loop.attach(a, [&](peer_id, const_byte_span) { ++delivered; });
  loop.run_for(50ms);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(a.dropped_unknown() + 0u, a.dropped_unknown());  // counter exists
}

// ---- zero-copy receive ----------------------------------------------

// Drains `rx` until `want` datagrams arrive (or the attempt budget runs
// out), appending views. Copies nothing out of the slabs.
std::size_t drain_views(udp_endpoint& rx, std::size_t want,
                        std::vector<std::pair<peer_id, buf::pkt_view>>& out) {
  for (int attempt = 0; attempt < 2000 && out.size() < want; ++attempt) {
    if (rx.recv_batch_views(udp_endpoint::kBatchMax, out) == 0) {
      std::this_thread::sleep_for(1ms);
    }
  }
  return out.size();
}

TEST(UdpBackend, RecvBatchViewsAliasesPoolSlabs) {
  // Zero-copy means the view's bytes live inside the endpoint's pool
  // arena — not in some per-datagram allocation.
  udp_endpoint rx, tx;
  tx.add_peer(2, "127.0.0.1", rx.port());
  rx.add_peer(1, "127.0.0.1", tx.port());

  ASSERT_TRUE(tx.send(2, to_bytes("in the slab")));
  std::vector<std::pair<peer_id, buf::pkt_view>> got;
  ASSERT_EQ(drain_views(rx, 1, got), 1u);

  const std::uint8_t* base = rx.pool()->arena_base();
  const std::uint8_t* end = base + rx.pool()->slab_size() * rx.pool()->slab_count();
  EXPECT_GE(got[0].second.data(), base);
  EXPECT_LT(got[0].second.data(), end);
  EXPECT_EQ(to_string(got[0].second.span()), "in the slab");

  // The held view pins its slab beyond the endpoint's own armed rx
  // buffers; dropping it recycles exactly that one slab.
  const std::size_t with_view = rx.pool_stats().outstanding;
  got.clear();
  EXPECT_EQ(rx.pool_stats().outstanding, with_view - 1);
}

TEST(UdpBackend, OversizedDatagramTruncatedAndCounted) {
  udp_config cfg;
  cfg.pool.slab_size = 128;  // far below the 512-byte datagram
  udp_endpoint rx(cfg);
  udp_endpoint tx;
  tx.add_peer(2, "127.0.0.1", rx.port());
  rx.add_peer(1, "127.0.0.1", tx.port());

  ASSERT_TRUE(tx.send(2, bytes(512, 0x5c)));
  std::vector<std::pair<peer_id, buf::pkt_view>> got;
  ASSERT_EQ(drain_views(rx, 1, got), 1u);
  EXPECT_LE(got[0].second.size(), rx.pool()->slab_size());
  EXPECT_LT(got[0].second.size(), 512u);
  EXPECT_EQ(rx.rx_truncated(), 1u);
}

TEST(UdpBackend, SendGatherMatchesConcatenation) {
  udp_endpoint a, b;
  a.add_peer(2, "127.0.0.1", b.port());
  b.add_peer(1, "127.0.0.1", a.port());

  const bytes head = to_bytes("sealed-header|");
  const bytes payload = to_bytes("opaque payload");
  ASSERT_TRUE(a.send_gather(2, head, payload));

  std::vector<std::pair<peer_id, buf::pkt_view>> got;
  ASSERT_EQ(drain_views(b, 1, got), 1u);
  EXPECT_EQ(to_string(got[0].second.span()), "sealed-header|opaque payload");
}

// A pool smaller than one batch: every drain arms only what the pool has
// left, views dropped as they are consumed recycle into the armed slabs,
// and eight slabs carry 64 datagrams.
TEST(UdpBackend, BufferReplenish) {
  udp_config cfg;
  cfg.pool.slab_count = 8;
  cfg.pool.cache_batch = 2;
  udp_endpoint rx(cfg);
  udp_endpoint tx;
  tx.add_peer(2, "127.0.0.1", rx.port());
  rx.add_peer(1, "127.0.0.1", tx.port());

  constexpr std::size_t kTotal = 64;  // 8x the slab count
  std::size_t delivered = 0;
  std::vector<std::pair<peer_id, buf::pkt_view>> got;
  for (std::size_t i = 0; i < kTotal; ++i) {
    ASSERT_TRUE(tx.send(2, to_bytes(std::string("r").append(std::to_string(i)))));
    // Consume as we go so slabs recycle into the armed set.
    got.clear();
    delivered += rx.recv_batch_views(udp_endpoint::kBatchMax, got);
  }
  for (int attempt = 0; attempt < 2000 && delivered < kTotal; ++attempt) {
    got.clear();
    const std::size_t n = rx.recv_batch_views(udp_endpoint::kBatchMax, got);
    if (n == 0) std::this_thread::sleep_for(1ms);
    delivered += n;
  }
  EXPECT_EQ(delivered, kTotal);
  EXPECT_EQ(rx.rx_errors(), 0u);
  EXPECT_GT(rx.pool_stats().exhausted, 0u);  // arming ran the pool dry
  got.clear();

  // Nothing leaked: all eight slabs can be held as live views at once.
  // With every slab held the endpoint has nothing to arm, so the next
  // drain is counted empty, not failed; dropping the views re-arms them.
  const std::size_t slabs = cfg.pool.slab_count;
  for (std::size_t i = 0; i <= slabs; ++i) {
    ASSERT_TRUE(tx.send(2, to_bytes("h" + std::to_string(i))));
  }
  ASSERT_EQ(drain_views(rx, slabs, got), slabs);
  const std::uint64_t empty_before = rx.rx_empty();
  EXPECT_EQ(rx.recv_batch_views(udp_endpoint::kBatchMax, got), 0u);
  EXPECT_EQ(rx.rx_empty(), empty_before + 1);
  got.clear();
  ASSERT_EQ(drain_views(rx, 1, got), 1u);
  EXPECT_EQ(to_string(got[0].second.span()), "h" + std::to_string(slabs));
  EXPECT_EQ(rx.rx_errors(), 0u);
}

// ---- egress ------------------------------------------------------------

// A batch through sendmmsg arrives byte for byte and in order, and only
// kernel-accepted datagrams count as sent.
TEST(UdpTx, SendBatchArrivesInOrder) {
  udp_endpoint tx, rx;
  tx.add_peer(2, "127.0.0.1", rx.port());
  rx.add_peer(1, "127.0.0.1", tx.port());

  constexpr std::size_t kCount = 23;
  std::vector<bytes> sent;
  for (std::size_t i = 0; i < kCount; ++i) {
    sent.push_back(to_bytes("egress " + std::to_string(i) + " payload"));
  }
  EXPECT_EQ(tx.send_batch(2, sent), kCount);

  std::vector<std::pair<peer_id, buf::pkt_view>> got;
  ASSERT_EQ(drain_views(rx, kCount, got), kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(got[i].first, 1u);
    EXPECT_EQ(to_string(got[i].second.span()), to_string(sent[i]));
  }
  EXPECT_EQ(tx.sent(), kCount);
}

// The sanitizer-CI concurrency target (tools/ci_sanitizers.sh runs this
// binary under tsan): a sharded SN forwards over real sockets — worker
// threads produce into egress rings while the control thread drains them
// into synchronous gather sends, and ingress slab references cross to the
// workers and back. Exercises every cross-thread edge of the egress path.
TEST(UdpTx, ShardedEgressConcurrentDrain) {
  udp_endpoint ep_host_a, ep_host_b, ep_sn;
  event_loop loop;

  const peer_id id_a = ep_host_a.port();
  const peer_id id_sn = ep_sn.port();
  const peer_id id_b = ep_host_b.port();
  ep_host_a.add_peer(id_sn, "127.0.0.1", ep_sn.port());
  ep_host_b.add_peer(id_sn, "127.0.0.1", ep_sn.port());
  ep_sn.add_peer(id_a, "127.0.0.1", ep_host_a.port());
  ep_sn.add_peer(id_b, "127.0.0.1", ep_host_b.port());

  core::testing::identity_router route;
  real_clock clk;
  core::service_node sn(core::sn_config{.id = id_sn, .edomain = 1, .workers = 2}, clk,
                        [&](peer_id to, bytes d) { ep_sn.send(to, d); }, loop.scheduler(),
                        &route);
  sn.env().deploy(std::make_unique<core::testing::forwarder_module>());
  // Forwards drain from the shard egress rings into gather sends.
  sn.pipes().set_send_gather([&](peer_id to, const_byte_span head, const_byte_span payload) {
    ep_sn.send_gather(to, head, payload);
  });

  host::host_stack host_a(
      host::host_config{.addr = id_a, .first_hop_sn = id_sn, .fallback_sns = {}}, clk,
      [&](peer_id to, bytes d) { ep_host_a.send(to, d); }, loop.scheduler(), nullptr);
  host::host_stack host_b(
      host::host_config{.addr = id_b, .first_hop_sn = id_sn, .fallback_sns = {}}, clk,
      [&](peer_id to, bytes d) { ep_host_b.send(to, d); }, loop.scheduler(), nullptr);

  loop.attach(ep_host_a, [&](peer_id f, const_byte_span d) { host_a.on_datagram(f, d); });
  loop.attach(ep_host_b, [&](peer_id f, const_byte_span d) { host_b.on_datagram(f, d); });
  loop.attach_views(ep_sn, [&](std::span<std::pair<peer_id, buf::pkt_view>> ds) {
    sn.on_datagram_views(ds);
  });

  std::vector<std::string> inbox;
  host_b.set_default_handler(
      [&](const ilp::ilp_header&, bytes payload) { inbox.push_back(to_string(payload)); });

  constexpr int kMsgs = 48;
  auto conn = host_a.open(id_b, ilp::svc::delivery);
  for (int i = 0; i < kMsgs; ++i) {
    conn.send(to_bytes("concurrent " + std::to_string(i)));
    if (i % 8 == 7) loop.run_for(5ms);  // interleave drains with sends
  }
  loop.run_until_quiet(30ms, 5000ms);
  sn.wait_idle();
  loop.run_until_quiet(30ms, 2000ms);
  sn.wait_idle();

  EXPECT_EQ(inbox.size(), static_cast<std::size_t>(kMsgs));
  // In parallel mode the forward accounting lives in the shard termini.
  std::uint64_t forwarded = 0;
  for (std::size_t i = 0; i < sn.worker_count(); ++i) {
    forwarded += sn.shard_terminus_stats(i).forwarded;
  }
  EXPECT_EQ(forwarded, static_cast<std::uint64_t>(kMsgs));
  // No slab leaks through sharded egress: with the shards idle and the
  // event loop's views dropped, the SN pool holds only the endpoint's
  // armed rx slabs (at most kBatchMax) and its allocation cache (fewer
  // than cache_batch).
  EXPECT_LT(ep_sn.pool_stats().outstanding,
            udp_endpoint::kBatchMax + buf::pool_config{}.cache_batch);
}

TEST(UdpEndpoint, PeerTableSurvivesGrowth) {
  // ~100 peers forces the open-addressed table through several rehashes;
  // lookups in both directions (peer -> addr, source -> peer) must hold.
  udp_endpoint hub;
  std::vector<std::unique_ptr<udp_endpoint>> spokes;
  constexpr std::size_t kPeers = 100;
  for (std::size_t i = 0; i < kPeers; ++i) {
    spokes.push_back(std::make_unique<udp_endpoint>());
    hub.add_peer(static_cast<peer_id>(i + 1), "127.0.0.1", spokes.back()->port());
    spokes.back()->add_peer(1000, "127.0.0.1", hub.port());
  }
  // A scattering of spokes send to the hub; source resolution must map
  // each back to the right peer_id after all the insertions.
  for (std::size_t i = 0; i < kPeers; i += 7) {
    ASSERT_TRUE(spokes[i]->send(1000, to_bytes("from " + std::to_string(i))));
  }
  std::vector<std::pair<peer_id, buf::pkt_view>> got;
  const std::size_t expect = (kPeers + 6) / 7;
  ASSERT_EQ(drain_views(hub, expect, got), expect);
  for (auto& [from, view] : got) {
    EXPECT_EQ(to_string(view.span()), "from " + std::to_string(from - 1));
  }
  // And the hub can address every spoke.
  for (std::size_t i = 0; i < kPeers; ++i) {
    EXPECT_TRUE(hub.send(static_cast<peer_id>(i + 1), to_bytes("ping")));
  }
  EXPECT_EQ(hub.dropped_unknown(), 0u);
}

TEST(EventLoop, TimersFireInOrder) {
  event_loop loop;
  std::vector<int> order;
  loop.schedule(30ms, [&] { order.push_back(3); });
  loop.schedule(10ms, [&] { order.push_back(1); });
  loop.schedule(20ms, [&] { order.push_back(2); });
  loop.run_for(80ms);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// ILP pipes over real UDP: handshake + sealed data.
TEST(UdpIlp, PipeHandshakeAndDataOverRealSockets) {
  udp_endpoint ep_a, ep_b;
  ep_a.add_peer(2, "127.0.0.1", ep_b.port());
  ep_b.add_peer(1, "127.0.0.1", ep_a.port());

  std::vector<std::string> received;
  ilp::pipe_manager mgr_a(1, [&](peer_id to, bytes d) { ep_a.send(to, d); },
                          [](peer_id, const ilp::ilp_header&, bytes) {});
  ilp::pipe_manager mgr_b(2, [&](peer_id to, bytes d) { ep_b.send(to, d); },
                          [&](peer_id, const ilp::ilp_header&, bytes payload) {
                            received.push_back(to_string(payload));
                          });

  event_loop loop;
  loop.attach(ep_a, [&](peer_id from, const_byte_span d) { mgr_a.on_datagram(from, d); });
  loop.attach(ep_b, [&](peer_id from, const_byte_span d) { mgr_b.on_datagram(from, d); });

  ilp::ilp_header h;
  h.service = ilp::svc::null_service;
  h.connection = 5;
  mgr_a.send(2, h, to_bytes("sealed over udp"));
  loop.run_until_quiet(30ms, 3000ms);

  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], "sealed over udp");
  EXPECT_TRUE(mgr_a.has_pipe(2));
  EXPECT_TRUE(mgr_b.has_pipe(1));
}

// A full InterEdge element chain on real sockets: host -> SN -> host.
TEST(UdpInterEdge, HostSnHostOverRealSockets) {
  udp_endpoint ep_host_a, ep_sn, ep_host_b;
  event_loop loop;

  // Identifier scheme: elements are addressed by their UDP port.
  const peer_id id_a = ep_host_a.port();
  const peer_id id_sn = ep_sn.port();
  const peer_id id_b = ep_host_b.port();
  ep_host_a.add_peer(id_sn, "127.0.0.1", ep_sn.port());
  ep_host_b.add_peer(id_sn, "127.0.0.1", ep_sn.port());
  ep_sn.add_peer(id_a, "127.0.0.1", ep_host_a.port());
  ep_sn.add_peer(id_b, "127.0.0.1", ep_host_b.port());

  core::testing::identity_router route;
  real_clock clk;
  core::service_node sn(core::sn_config{.id = id_sn, .edomain = 1}, clk,
                        [&](peer_id to, bytes d) { ep_sn.send(to, d); }, loop.scheduler(),
                        &route);
  sn.env().deploy(std::make_unique<core::testing::forwarder_module>());

  host::host_stack host_a(host::host_config{.addr = id_a, .first_hop_sn = id_sn, .fallback_sns = {}}, clk,
                          [&](peer_id to, bytes d) { ep_host_a.send(to, d); },
                          loop.scheduler(), nullptr);
  host::host_stack host_b(host::host_config{.addr = id_b, .first_hop_sn = id_sn, .fallback_sns = {}}, clk,
                          [&](peer_id to, bytes d) { ep_host_b.send(to, d); },
                          loop.scheduler(), nullptr);

  loop.attach(ep_host_a, [&](peer_id from, const_byte_span d) { host_a.on_datagram(from, d); });
  loop.attach(ep_host_b, [&](peer_id from, const_byte_span d) { host_b.on_datagram(from, d); });
  loop.attach(ep_sn, [&](peer_id from, const_byte_span d) { sn.on_datagram(from, d); });

  std::vector<std::string> inbox;
  host_b.set_default_handler([&](const ilp::ilp_header&, bytes payload) {
    inbox.push_back(to_string(payload));
  });

  auto conn = host_a.open(id_b, ilp::svc::delivery);
  for (int i = 0; i < 3; ++i) {
    conn.send(to_bytes("udp msg " + std::to_string(i)));
  }
  loop.run_until_quiet(30ms, 3000ms);

  ASSERT_EQ(inbox.size(), 3u);
  EXPECT_EQ(inbox[0], "udp msg 0");
  EXPECT_EQ(sn.datapath_stats().forwarded, 3u);
  EXPECT_GE(sn.datapath_stats().fast_path, 2u);  // decision cache engaged
}

// The pub/sub service module works unchanged over real sockets.
TEST(UdpInterEdge, PubSubOverRealSockets) {
  udp_endpoint ep_pub, ep_sn, ep_sub;
  event_loop loop;
  const peer_id id_pub = ep_pub.port();
  const peer_id id_sn = ep_sn.port();
  const peer_id id_sub = ep_sub.port();
  ep_pub.add_peer(id_sn, "127.0.0.1", ep_sn.port());
  ep_sub.add_peer(id_sn, "127.0.0.1", ep_sn.port());
  ep_sn.add_peer(id_pub, "127.0.0.1", ep_pub.port());
  ep_sn.add_peer(id_sub, "127.0.0.1", ep_sub.port());

  lookup::lookup_service directory;
  edomain::domain_core core(1, directory);
  core.add_sn(id_sn);
  real_clock clk;
  core::service_node sn(core::sn_config{.id = id_sn, .edomain = 1}, clk,
                        [&](peer_id to, bytes d) { ep_sn.send(to, d); }, loop.scheduler(),
                        nullptr);
  sn.env().deploy(std::make_unique<services::pubsub_service>(core, id_sn));

  host::host_stack pub_host(host::host_config{.addr = id_pub, .first_hop_sn = id_sn, .fallback_sns = {}}, clk,
                            [&](peer_id to, bytes d) { ep_pub.send(to, d); },
                            loop.scheduler(), &directory);
  host::host_stack sub_host(host::host_config{.addr = id_sub, .first_hop_sn = id_sn, .fallback_sns = {}}, clk,
                            [&](peer_id to, bytes d) { ep_sub.send(to, d); },
                            loop.scheduler(), &directory);
  loop.attach(ep_pub, [&](peer_id from, const_byte_span d) { pub_host.on_datagram(from, d); });
  loop.attach(ep_sub, [&](peer_id from, const_byte_span d) { sub_host.on_datagram(from, d); });
  loop.attach(ep_sn, [&](peer_id from, const_byte_span d) { sn.on_datagram(from, d); });

  services::pubsub_client subscriber(sub_host);
  services::pubsub_client publisher(pub_host);
  std::vector<std::string> got;
  subscriber.subscribe("live", [&](const std::string&, bytes p) { got.push_back(to_string(p)); });
  loop.run_until_quiet(30ms, 2000ms);
  EXPECT_EQ(subscriber.acks(), 1u);

  publisher.publish("live", to_bytes("real datagrams"));
  loop.run_until_quiet(30ms, 2000ms);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "real datagrams");
}

}  // namespace
}  // namespace interedge::net
