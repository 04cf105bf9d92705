// Last-hop QoS (paper §6): a household prioritizes gaming traffic over a
// bulk download on its congested access link by pushing a profile to its
// first-hop SN.
//
//   ./examples/qos_household [--access_mbps=8] [--bulk_packets=30]
#include <cstdio>

#include "common/flags.h"
#include "deploy/deployment.h"
#include "deploy/standard_services.h"
#include "services/clients/qos_client.h"

using namespace interedge;
using namespace std::chrono_literals;

int main(int argc, char** argv) {
  const flag_set flags = flag_set::parse_or_exit(argc, argv, {"access_mbps", "bulk_packets"});
  const std::uint64_t access_mbps = static_cast<std::uint64_t>(flags.get_int("access_mbps", 8));
  const int bulk_packets = static_cast<int>(flags.get_int("bulk_packets", 30));

  std::printf("== last-hop QoS: the household example ==\n\n");

  deploy::deployment net;
  const auto home_isp = net.add_edomain();
  const auto cloud = net.add_edomain();
  net.add_sn(home_isp);
  net.add_sn(cloud);
  auto& household = net.add_host(home_isp);
  auto& game_server = net.add_host(cloud);
  auto& video_cdn = net.add_host(cloud);
  net.interconnect();
  deploy::deploy_standard_services(net);

  // Receive log.
  struct arrival {
    std::string kind;
    double ms;
  };
  std::vector<arrival> arrivals;
  household.set_default_handler([&](const ilp::ilp_header& h, bytes) {
    const auto src = h.meta_u64(ilp::meta_key::src_addr).value_or(0);
    arrivals.push_back({src == game_server.addr() ? "GAME " : "video",
                        static_cast<double>(net.net().now().time_since_epoch().count()) / 1e6});
  });

  // The household declares its access link and priorities out of band.
  services::qos_client qc(household);
  services::qos_profile profile;
  profile.access_bps = access_mbps * 1000000;
  profile.rules.push_back({.src_prefix = game_server.addr(),
                           .prefix_bits = 64,
                           .priority = 0,  // gaming: strict priority
                           .weight = 1.0});
  profile.rules.push_back({.prefix_bits = 0, .priority = 1, .weight = 1.0});
  qc.configure(profile);
  net.run();
  std::printf("household declared %llu Mbps access, gaming at priority 0\n\n",
              static_cast<unsigned long long>(access_mbps));

  // A bulk video burst arrives, then a single latency-critical game packet.
  for (int i = 0; i < bulk_packets; ++i) {
    video_cdn.send_to(household.addr(), ilp::svc::last_hop_qos, bytes(1200, 0x22));
  }
  game_server.send_to(household.addr(), ilp::svc::last_hop_qos, bytes(120, 0x11));
  net.run();

  std::printf("arrival order at the household (first 10):\n");
  for (std::size_t i = 0; i < arrivals.size() && i < 10; ++i) {
    std::printf("  %4.2f ms  %s\n", arrivals[i].ms, arrivals[i].kind.c_str());
  }
  std::size_t game_position = arrivals.size();
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    if (arrivals[i].kind == "GAME ") game_position = i;
  }
  std::printf("\nthe game packet, sent LAST of %zu packets, arrived at position %zu\n",
              arrivals.size(), game_position + 1);
  std::printf("(without QoS it would arrive position %zu)\n", arrivals.size());
  return game_position < arrivals.size() - 1 ? 0 : 1;
}
