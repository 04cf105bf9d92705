// CDN interconnection scenario: an application provider serves content to
// clients spread over several IESPs' edomains. The delivery bundle's edge
// caches absorb repeated fetches; the neutrality machinery shows how the
// provider buys coverage from the published rate cards via a broker
// instead of contracting each IESP separately (paper §5).
//
//   ./examples/cdn_interconnect [--edomains=3] [--clients=6] [--fetches=3]
#include <cstdio>

#include "common/flags.h"
#include "deploy/deployment.h"
#include "deploy/standard_services.h"
#include "edomain/pricing.h"
#include "services/clients/content.h"
#include "services/delivery.h"

using namespace interedge;

int main(int argc, char** argv) {
  const flag_set flags = flag_set::parse_or_exit(argc, argv, {"edomains", "clients", "fetches"});
  const int n_domains = static_cast<int>(flags.get_int("edomains", 3));
  const int n_clients = static_cast<int>(flags.get_int("clients", 6));
  const int n_fetches = static_cast<int>(flags.get_int("fetches", 3));

  std::printf("== CDN over the InterEdge ==\n\n");

  // --- coverage purchase: broker stitches small IESPs (paper §5) ---
  edomain::marketplace market;
  edomain::rate_card global_card, local_a, local_b;
  global_card.set_rate(ilp::svc::delivery, "region-1", {{0, 100}});
  global_card.set_rate(ilp::svc::delivery, "region-2", {{0, 100}});
  global_card.set_rate(ilp::svc::delivery, "region-3", {{0, 100}});
  local_a.set_rate(ilp::svc::delivery, "region-1", {{0, 55}});
  local_a.set_rate(ilp::svc::delivery, "region-2", {{0, 80}});
  local_b.set_rate(ilp::svc::delivery, "region-3", {{0, 60}});
  market.add(std::make_shared<edomain::iesp>("global-edge", global_card));
  market.add(std::make_shared<edomain::iesp>("metro-a", local_a));
  market.add(std::make_shared<edomain::iesp>("metro-b", local_b));

  edomain::broker broker(market);
  const auto plan = broker.stitch("video-app-inc", ilp::svc::delivery,
                                  {{"region-1", 100}, {"region-2", 100}, {"region-3", 100}});
  std::printf("Broker coverage plan for video-app-inc:\n");
  for (const auto& a : plan->assignments) {
    std::printf("  %-10s <- %-12s at %lld micro-USD\n", a.region.c_str(),
                a.provider->name().c_str(), static_cast<long long>(a.price));
  }
  std::printf("  total %lld (single global provider would cost %lld)\n\n",
              static_cast<long long>(plan->total), static_cast<long long>(300 * 100));

  // Neutrality spot check: same quotes for different customers.
  edomain::neutrality_auditor auditor;
  const auto violations =
      auditor.audit(*market.find("global-edge"),
                    {{ilp::svc::delivery, "region-1", 100}}, {"video-app-inc", "rival-corp"});
  std::printf("Neutrality audit of global-edge: %s\n\n",
              violations.empty() ? "PASS (identity-blind quotes)" : "VIOLATIONS FOUND");

  // --- the deployment itself ---
  deploy::deployment net;
  std::vector<deploy::edomain_id> domains;
  std::vector<deploy::peer_id> sns;
  for (int i = 0; i < n_domains; ++i) {
    domains.push_back(net.add_edomain());
    sns.push_back(net.add_sn(domains.back()));
  }
  auto& origin_host = net.add_host(domains[0]);
  std::vector<host::host_stack*> clients;
  for (int i = 0; i < n_clients; ++i) {
    clients.push_back(&net.add_host(domains[1 + i % (n_domains - 1)]));
  }
  net.interconnect();
  deploy::deploy_standard_services(net);

  services::content_origin origin(origin_host);
  origin.put("movie.mp4", bytes(1200, 0x4d));

  std::vector<std::unique_ptr<services::content_client>> ccs;
  int delivered = 0;
  for (auto* c : clients) {
    ccs.push_back(std::make_unique<services::content_client>(*c));
  }
  std::printf("%d clients each fetch movie.mp4 %d times...\n", n_clients, n_fetches);
  for (int round = 0; round < n_fetches; ++round) {
    for (auto& cc : ccs) {
      cc->fetch(origin_host.addr(), "movie.mp4",
                [&delivered](const std::string&, bytes) { ++delivered; });
    }
    net.run();
  }

  std::printf("\n-- results --\n");
  std::printf("deliveries: %d / %d\n", delivered, n_clients * n_fetches);
  std::printf("origin served only %llu requests; the edge absorbed the rest\n",
              static_cast<unsigned long long>(origin.requests_served()));
  for (std::size_t i = 0; i < sns.size(); ++i) {
    auto* module = static_cast<services::delivery_service*>(
        net.sn(sns[i]).env().module_for(ilp::svc::delivery));
    std::printf("SN %llu: cache hits=%llu misses=%llu objects=%llu\n",
                static_cast<unsigned long long>(sns[i]),
                static_cast<unsigned long long>(module->cache_hits()),
                static_cast<unsigned long long>(module->cache_misses()),
                static_cast<unsigned long long>(module->cached_objects()));
  }
  return delivered == n_clients * n_fetches ? 0 : 1;
}
