// Ablation A4: service-layer behaviour over simulated deployments —
// pub/sub fan-out scaling, gateway relay vs direct inter-domain paths,
// and CDN cache effectiveness. Latency numbers are *virtual* (simulated)
// time — they characterize path structure, not host speed; the msgs/s
// column is real wall-clock simulator throughput.
//
//   ./bench/ablation_services [--max_subscribers=256]
#include <chrono>
#include <cstdio>

#include "common/flags.h"
#include "common/metrics.h"
#include "deploy/deployment.h"
#include "deploy/standard_services.h"
#include "services/clients/content.h"
#include "services/clients/pubsub_client.h"
#include "services/delivery.h"

using namespace interedge;
using steady = std::chrono::steady_clock;

namespace {

void pubsub_fanout_sweep(int max_subscribers) {
  std::printf("-- pub/sub fan-out sweep (4 edomains, subscribers spread evenly) --\n");
  std::printf("%12s %14s %18s %20s\n", "subscribers", "deliveries", "sim datagrams",
              "wall msgs/s");
  for (int subs = 1; subs <= max_subscribers; subs *= 4) {
    deploy::deployment net;
    std::vector<deploy::edomain_id> domains;
    for (int i = 0; i < 4; ++i) {
      domains.push_back(net.add_edomain());
      net.add_sn(domains.back());
      net.add_sn(domains.back());
    }
    auto& publisher = net.add_host(domains[0]);
    std::vector<host::host_stack*> hosts;
    for (int i = 0; i < subs; ++i) hosts.push_back(&net.add_host(domains[i % 4]));
    net.interconnect();
    deploy::deploy_standard_services(net);

    services::pubsub_client pub(publisher);
    std::vector<std::unique_ptr<services::pubsub_client>> clients;
    std::uint64_t delivered = 0;
    for (auto* h : hosts) {
      clients.push_back(std::make_unique<services::pubsub_client>(*h));
      clients.back()->subscribe("feed", [&delivered](const std::string&, bytes) { ++delivered; });
    }
    net.run();

    const std::uint64_t datagrams_before = net.net().datagrams_sent();
    constexpr int kMessages = 50;
    const auto t0 = steady::now();
    for (int m = 0; m < kMessages; ++m) {
      pub.publish("feed", bytes(200, 0x33));
      net.run();
    }
    const double wall =
        std::chrono::duration_cast<std::chrono::duration<double>>(steady::now() - t0).count();
    std::printf("%12d %14llu %18llu %20.0f\n", subs,
                static_cast<unsigned long long>(delivered),
                static_cast<unsigned long long>(net.net().datagrams_sent() - datagrams_before),
                static_cast<double>(delivered) / wall);
  }
  std::printf("\n");
}

void interdomain_path_comparison() {
  std::printf("-- inter-edomain path: gateway relay vs direct (on-demand) pipes --\n");
  std::printf("%10s %22s %22s\n", "mode", "end-to-end (sim us)", "SN hops");
  for (const bool direct : {false, true}) {
    deploy::deployment net(deploy::deployment_config{.direct_interdomain = direct});
    const auto west = net.add_edomain();
    const auto east = net.add_edomain();
    net.add_sn(west);                       // west gateway
    const auto sn_w2 = net.add_sn(west);    // sender's SN (non-gateway)
    net.add_sn(east);                       // east gateway
    const auto sn_e2 = net.add_sn(east);    // receiver's SN (non-gateway)
    auto& alice = net.add_host(west, sn_w2);
    auto& bob = net.add_host(east, sn_e2);
    net.interconnect();
    deploy::deploy_standard_services(net);

    // Warm up pipes so the measurement excludes handshakes.
    bob.set_default_handler([](const ilp::ilp_header&, bytes) {});
    alice.send_to(bob.addr(), ilp::svc::delivery, to_bytes("warm"));
    net.run();

    time_point sent, arrived;
    bob.set_default_handler([&](const ilp::ilp_header&, bytes) { arrived = net.net().now(); });
    sent = net.net().now();
    alice.send_to(bob.addr(), ilp::svc::delivery, to_bytes("measured"));
    net.run();

    std::uint64_t sn_hops = 0;
    for (auto sn : net.sns_in(west)) sn_hops += net.sn(sn).datapath_stats().forwarded;
    for (auto sn : net.sns_in(east)) sn_hops += net.sn(sn).datapath_stats().forwarded;

    std::printf("%10s %22.1f %22llu\n", direct ? "direct" : "gateway",
                static_cast<double>((arrived - sent).count()) / 1000.0,
                static_cast<unsigned long long>(sn_hops / 2));  // per measured packet
  }
  std::printf("\n");
}

void cdn_cache_effectiveness() {
  std::printf("-- CDN bundle: origin load vs client population (3 fetches each) --\n");
  std::printf("%10s %16s %18s %22s\n", "clients", "total fetches", "origin served",
              "edge absorption");
  for (int clients : {1, 4, 16, 64}) {
    deploy::deployment net;
    const auto origin_domain = net.add_edomain();
    const auto edge_domain = net.add_edomain();
    net.add_sn(origin_domain);
    net.add_sn(edge_domain);
    auto& origin_host = net.add_host(origin_domain);
    std::vector<host::host_stack*> hosts;
    for (int i = 0; i < clients; ++i) hosts.push_back(&net.add_host(edge_domain));
    net.interconnect();
    deploy::deploy_standard_services(net);

    services::content_origin origin(origin_host);
    origin.put("popular", bytes(1000, 0x99));
    std::vector<std::unique_ptr<services::content_client>> ccs;
    int delivered = 0;
    for (auto* h : hosts) ccs.push_back(std::make_unique<services::content_client>(*h));
    // First round staggered (no request coalescing in the module, so a
    // simultaneous cold herd would all miss); later rounds concurrent.
    for (auto& cc : ccs) {
      cc->fetch(origin_host.addr(), "popular",
                [&delivered](const std::string&, bytes) { ++delivered; });
      net.run();
    }
    for (int round = 1; round < 3; ++round) {
      for (auto& cc : ccs) {
        cc->fetch(origin_host.addr(), "popular",
                  [&delivered](const std::string&, bytes) { ++delivered; });
      }
      net.run();
    }
    const int total = clients * 3;
    std::printf("%10d %16d %18llu %21.1f%%\n", clients, total,
                static_cast<unsigned long long>(origin.requests_served()),
                100.0 * (1.0 - static_cast<double>(origin.requests_served()) / total));
  }
  std::printf("\n");
}

// Before/after of the ISSUE 2 service-metric migration: every module used
// to call ctx.metrics().get_counter("name").add() per event (registry
// mutex + name-map lookup); they now hold handles resolved in start().
// This arm measures exactly those two code shapes.
void metric_path_comparison() {
  std::printf("-- service metric path: per-event string lookup vs cached handle --\n");
  constexpr int kEvents = 2'000'000;
  metrics_registry reg;
  // A deployed SN's registry holds dozens of series; size the name map
  // accordingly so the lookup arm pays a realistic map walk.
  for (int i = 0; i < 48; ++i) reg.get_counter("sn.family." + std::to_string(i));

  const auto t0 = steady::now();
  for (int i = 0; i < kEvents; ++i) {
    reg.get_counter("svc.events").add();  // the old hot-path shape
  }
  const double lookup_ns =
      std::chrono::duration_cast<std::chrono::duration<double, std::nano>>(steady::now() - t0)
          .count() /
      kEvents;

  counter& handle = reg.get_counter("svc.events");  // resolved once, as in start()
  const auto t1 = steady::now();
  for (int i = 0; i < kEvents; ++i) {
    handle.add();
  }
  const double handle_ns =
      std::chrono::duration_cast<std::chrono::duration<double, std::nano>>(steady::now() - t1)
          .count() /
      kEvents;

  std::printf("%18s %14s %12s\n", "path", "ns/event", "speedup");
  std::printf("%18s %14.1f %12s\n", "string lookup", lookup_ns, "1.0x");
  std::printf("%18s %14.1f %11.1fx\n", "cached handle", handle_ns, lookup_ns / handle_ns);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const flag_set flags = flag_set::parse_or_exit(argc, argv, {"max_subscribers"});
  const int max_subscribers = static_cast<int>(flags.get_int("max_subscribers", 256));

  std::printf("== Ablation A4: service-layer behaviour ==\n\n");
  metric_path_comparison();
  pubsub_fanout_sweep(max_subscribers);
  interdomain_path_comparison();
  cdn_cache_effectiveness();
  return 0;
}
