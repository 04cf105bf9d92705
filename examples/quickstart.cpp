// Quickstart: build a two-edomain InterEdge, attach hosts, send traffic
// through service nodes, and inspect the datapath.
//
//   ./examples/quickstart [--hosts=4] [--messages=8]
#include <cstdio>

#include "common/flags.h"
#include "deploy/deployment.h"
#include "deploy/standard_services.h"

using namespace interedge;

int main(int argc, char** argv) {
  const flag_set flags = flag_set::parse_or_exit(argc, argv, {"hosts", "messages"});
  const int n_hosts = static_cast<int>(flags.get_int("hosts", 4));
  const int n_messages = static_cast<int>(flags.get_int("messages", 8));

  std::printf("== InterEdge quickstart ==\n");
  std::printf("Building two edomains (two IESPs), one SN each, %d hosts...\n\n", n_hosts);

  // 1. Topology: two InterEdge Service Providers, full-mesh peering.
  deploy::deployment net;
  const auto west = net.add_edomain();
  const auto east = net.add_edomain();
  const auto sn_west = net.add_sn(west);
  const auto sn_east = net.add_sn(east);

  std::vector<host::host_stack*> hosts;
  for (int i = 0; i < n_hosts; ++i) {
    hosts.push_back(&net.add_host(i % 2 == 0 ? west : east));
  }
  net.interconnect();  // settlement-free peering pipes + gateway maps

  // 2. Deploy the standardized service suite on every SN (the uniform
  //    service model: write once, run on every IESP).
  deploy::deploy_standard_services(net);

  // 3. Receive hooks.
  std::vector<int> received(hosts.size(), 0);
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    hosts[i]->set_default_handler([&received, i](const ilp::ilp_header& h, bytes payload) {
      std::printf("  host %zu <- conn %llu: \"%s\"\n", i,
                  static_cast<unsigned long long>(h.connection),
                  to_string(payload).c_str());
      ++received[i];
    });
  }

  // 4. Send messages pairwise using the delivery service.
  std::printf("Sending %d messages through the InterEdge...\n", n_messages);
  for (int m = 0; m < n_messages; ++m) {
    auto& from = *hosts[m % hosts.size()];
    auto& to = *hosts[(m + 1) % hosts.size()];
    auto conn = from.open(to.addr(), ilp::svc::delivery);
    conn.send(to_bytes("message " + std::to_string(m)));
  }
  net.run();

  // 5. Inspect the datapath.
  std::printf("\n-- service node datapath --\n");
  for (auto sn : {sn_west, sn_east}) {
    const auto& stats = net.sn(sn).datapath_stats();
    const auto& cache = net.sn(sn).cache().stats();
    std::printf(
        "SN %llu (edomain %u): received=%llu fast-path=%llu slow-path=%llu "
        "forwarded=%llu | cache hits=%llu misses=%llu\n",
        static_cast<unsigned long long>(sn), net.domain_of_sn(sn),
        static_cast<unsigned long long>(stats.received),
        static_cast<unsigned long long>(stats.fast_path),
        static_cast<unsigned long long>(stats.slow_path),
        static_cast<unsigned long long>(stats.forwarded),
        static_cast<unsigned long long>(cache.hits),
        static_cast<unsigned long long>(cache.misses));
  }

  std::printf("\n-- settlement-free peering (paper §5) --\n");
  std::printf("west->east traffic: %llu bytes, settlement due: %lld\n",
              static_cast<unsigned long long>(net.ledger().traffic(west, east)),
              static_cast<long long>(net.ledger().settlement_due(west, east)));
  std::printf("east->west traffic: %llu bytes, settlement due: %lld\n",
              static_cast<unsigned long long>(net.ledger().traffic(east, west)),
              static_cast<long long>(net.ledger().settlement_due(east, west)));

  int total = 0;
  for (int r : received) total += r;
  std::printf("\n%d/%d messages delivered end-to-end.\n", total, n_messages);
  return total == n_messages ? 0 : 1;
}
