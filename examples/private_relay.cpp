// Privacy services (paper §6): oblivious DNS and a mixnet relay chain.
// Shows what each party can and cannot observe.
//
//   ./examples/private_relay [--hops=3]
#include <cstdio>

#include "common/flags.h"
#include "deploy/deployment.h"
#include "deploy/standard_services.h"
#include "services/clients/mixnet_client.h"
#include "services/clients/odns_client.h"
#include "services/mixnet.h"

using namespace interedge;

int main(int argc, char** argv) {
  const flag_set flags = flag_set::parse_or_exit(argc, argv, {"hops"});
  const int hops = static_cast<int>(flags.get_int("hops", 3));

  std::printf("== private relay: oDNS + mixnet ==\n\n");

  deploy::standard_services_config cfg;
  cfg.odns = true;
  cfg.mixnet = true;

  deploy::deployment net;
  const auto west = net.add_edomain();
  const auto east = net.add_edomain();
  std::vector<deploy::peer_id> sns;
  sns.push_back(net.add_sn(west));
  sns.push_back(net.add_sn(west));
  sns.push_back(net.add_sn(east));
  sns.push_back(net.add_sn(east));
  auto& user = net.add_host(west, sns[0]);
  auto& resolver_host = net.add_host(east, sns[3]);
  auto& website = net.add_host(east, sns[2]);
  net.interconnect();
  deploy::deploy_standard_services(net, cfg);

  // --- oDNS ---
  services::odns_resolver resolver(resolver_host);
  resolver.add_record("private-site.example", std::to_string(website.addr()));
  for (auto sn : sns) {
    net.sn(sn).env().set_config(ilp::svc::odns, "resolver",
                                std::to_string(resolver_host.addr()));
  }

  services::odns_client dns(user, resolver.public_key());
  std::string resolved;
  std::printf("user resolves private-site.example via oblivious DNS...\n");
  dns.query("private-site.example", [&](const std::string& name, const std::string& value) {
    std::printf("  answer: %s -> %s\n", name.c_str(), value.c_str());
    resolved = value;
  });
  net.run();

  std::printf("  resolver observed query sources: ");
  for (auto src : resolver.observed_sources()) {
    std::printf("%llu ", static_cast<unsigned long long>(src));
  }
  std::printf("\n  (user address %llu never appears: the proxy SN re-originated "
              "the query)\n\n",
              static_cast<unsigned long long>(user.addr()));

  // --- mixnet to the website ---
  services::mix_directory directory;
  for (auto sn : sns) {
    auto* m = static_cast<services::mixnet_service*>(
        net.sn(sn).env().module_for(ilp::svc::mixnet));
    directory.push_back({sn, m->public_key()});
  }
  std::vector<services::mix_node> chain(directory.begin(),
                                        directory.begin() + std::min<std::size_t>(hops, directory.size()));

  services::mixnet_client relay(user);
  services::mixnet_client site(website);
  std::printf("user sends a request to the website through a %zu-hop mixnet...\n",
              chain.size());
  site.set_handler([&](bytes payload) {
    std::printf("  website received: \"%s\" — with no idea who sent it\n",
                to_string(payload).c_str());
  });
  relay.send(chain, website.addr(), to_bytes("GET /secret-page"));
  net.run();

  std::printf("\nmix statistics (each node peeled exactly one layer):\n");
  for (const auto& hop : chain) {
    auto* m = static_cast<services::mixnet_service*>(
        net.sn(hop.sn).env().module_for(ilp::svc::mixnet));
    std::printf("  mix SN %llu: peeled=%llu exited=%llu\n",
                static_cast<unsigned long long>(hop.sn),
                static_cast<unsigned long long>(m->peeled()),
                static_cast<unsigned long long>(m->exited()));
  }
  return resolved.empty() ? 1 : 0;
}
