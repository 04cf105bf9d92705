// End-to-end service-node tests over the simulator: hosts (raw pipe
// managers) exchange packets through an SN running test service modules.
#include "core/service_node.h"

#include <gtest/gtest.h>

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

std::unique_ptr<service_node> make_sn(simulation& net, const router* route,
                                      std::uint16_t edomain = 1) {
  const node_id node = net.add_node(nullptr);
  auto sn = std::make_unique<service_node>(
      sn_config{.id = node, .edomain = edomain}, net.sim_clock(),
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

TEST(ServiceNode, HostToHostThroughSn) {
  simulation net;
  testing::identity_router route;
  auto alice = make_host(net);
  auto bob = make_host(net);
  auto sn = make_sn(net, &route);
  sn->env().deploy(std::make_unique<testing::forwarder_module>());

  alice->mgr->send(sn->node_id(), delivery_header(bob->node), to_bytes("hi bob"));
  net.run();

  ASSERT_EQ(bob->received.size(), 1u);
  EXPECT_EQ(to_string(bob->received[0].second), "hi bob");
  EXPECT_EQ(bob->received[0].first.connection, 1u);
  EXPECT_EQ(sn->datapath_stats().slow_path, 1u);
}

TEST(ServiceNode, SecondPacketUsesFastPath) {
  simulation net;
  testing::identity_router route;
  auto alice = make_host(net);
  auto bob = make_host(net);
  auto sn = make_sn(net, &route);
  sn->env().deploy(std::make_unique<testing::forwarder_module>());

  alice->mgr->send(sn->node_id(), delivery_header(bob->node), to_bytes("one"));
  net.run();
  alice->mgr->send(sn->node_id(), delivery_header(bob->node), to_bytes("two"));
  net.run();

  EXPECT_EQ(bob->received.size(), 2u);
  EXPECT_EQ(sn->datapath_stats().slow_path, 1u);
  EXPECT_EQ(sn->datapath_stats().fast_path, 1u);
  EXPECT_EQ(sn->cache().stats().hits, 1u);
}

TEST(ServiceNode, ChainOfTwoSns) {
  // client -> SN1 -> SN2 -> server: the typical communication path (§3.2).
  simulation net;
  testing::identity_router route;
  auto client = make_host(net);
  auto server = make_host(net);
  auto sn1 = make_sn(net, nullptr);  // routes via static table below
  auto sn2 = make_sn(net, &route);

  // SN1 forwards everything toward SN2 (its router resolves all
  // destinations to SN2).
  class static_router final : public core::router {
   public:
    explicit static_router(peer_id hop) : hop_(hop) {}
    std::optional<peer_id> next_hop(edge_addr) const override { return hop_; }

   private:
    peer_id hop_;
  };
  static_router to_sn2(sn2->node_id());
  sn1 = make_sn(net, &to_sn2);
  sn1->env().deploy(std::make_unique<testing::forwarder_module>());
  sn2->env().deploy(std::make_unique<testing::forwarder_module>());

  client->mgr->send(sn1->node_id(), delivery_header(server->node), to_bytes("via two SNs"));
  net.run();

  ASSERT_EQ(server->received.size(), 1u);
  EXPECT_EQ(to_string(server->received[0].second), "via two SNs");
  EXPECT_EQ(sn1->datapath_stats().forwarded, 1u);
  EXPECT_EQ(sn2->datapath_stats().forwarded, 1u);
}

TEST(ServiceNode, UnroutableDestinationDropped) {
  simulation net;
  auto alice = make_host(net);
  auto sn = make_sn(net, nullptr);  // no router at all
  sn->env().deploy(std::make_unique<testing::forwarder_module>());

  alice->mgr->send(sn->node_id(), delivery_header(12345), to_bytes("lost"));
  net.run();
  EXPECT_EQ(sn->datapath_stats().dropped, 1u);
}

// The byte entry copies into a slab of the SN's own pool; a datagram
// larger than a slab is refused before the copy, counted and not handled.
TEST(ServiceNode, OversizeDatagramIsCountedNotCopied) {
  simulation net;
  auto sn = make_sn(net, nullptr);
  const std::size_t slab = sn->ingress_pool().slab_size();
  sn->on_datagram(7, bytes(slab + 1, 0x03));
  EXPECT_EQ(sn->metrics().get_counter("ilp.rx.rejected").value(), 1u);
  EXPECT_EQ(sn->ingress_pool().stats().allocs, 0u);

  sn->on_datagram(7, bytes(slab, 0x7f));  // fits: copied, then refused by kind
  EXPECT_EQ(sn->metrics().get_counter("ilp.rx.rejected").value(), 2u);
  EXPECT_EQ(sn->ingress_pool().stats().allocs, 1u);
  EXPECT_EQ(sn->ingress_pool().stats().outstanding, 0u);
}

TEST(ServiceNode, ControlRoundTrip) {
  simulation net;
  auto alice = make_host(net);
  auto sn = make_sn(net, nullptr);
  sn->env().deploy(std::make_unique<testing::echo_control_module>(ilp::svc::pubsub));

  ilp::ilp_header control;
  control.service = ilp::svc::pubsub;
  control.connection = 42;
  control.flags = ilp::kFlagControl;
  alice->mgr->send(sn->node_id(), control, to_bytes("subscribe weather"));
  net.run();

  ASSERT_EQ(alice->received.size(), 1u);
  EXPECT_EQ(to_string(alice->received[0].second), "subscribe weather");
  EXPECT_EQ(alice->received[0].first.connection, 42u);
}

TEST(ServiceNode, KeyRotationKeepsDatapathAlive) {
  simulation net;
  testing::identity_router route;
  auto alice = make_host(net);
  auto bob = make_host(net);
  auto sn = make_sn(net, &route);
  sn->env().deploy(std::make_unique<testing::forwarder_module>());

  alice->mgr->send(sn->node_id(), delivery_header(bob->node), to_bytes("before"));
  net.run();
  sn->rotate_keys();
  alice->mgr->rotate_all();
  bob->mgr->rotate_all();
  alice->mgr->send(sn->node_id(), delivery_header(bob->node, 2), to_bytes("after"));
  net.run();

  ASSERT_EQ(bob->received.size(), 2u);
  EXPECT_EQ(to_string(bob->received[1].second), "after");
}

TEST(ServiceNode, CheckpointRestoreAcrossReplacement) {
  // "for stateful services, one can use ... standby-replication" (§3.3):
  // checkpoint an SN, fail it, restore the state into a replacement.
  simulation net;
  auto alice = make_host(net);
  auto sn = make_sn(net, nullptr);
  sn->env().deploy(std::make_unique<testing::sink_module>());

  ilp::ilp_header h;
  h.service = ilp::svc::null_service;
  h.connection = 1;
  alice->mgr->send(sn->node_id(), h, to_bytes("message-0"));
  net.run();
  const bytes snap = sn->checkpoint();

  auto replacement = make_sn(net, nullptr);
  auto sink = std::make_unique<testing::sink_module>();
  auto* raw = sink.get();
  replacement->env().deploy(std::move(sink));
  replacement->restore(snap);
  EXPECT_EQ(raw->counter(), 1);
}

TEST(ServiceNode, PeeringPipeEstablishment) {
  simulation net;
  auto sn1 = make_sn(net, nullptr);
  auto sn2 = make_sn(net, nullptr);
  sn1->peer_with(sn2->node_id());
  net.run();
  EXPECT_TRUE(sn1->pipes().has_pipe(sn2->node_id()));
  EXPECT_TRUE(sn2->pipes().has_pipe(sn1->node_id()));
}

}  // namespace
}  // namespace interedge::core
