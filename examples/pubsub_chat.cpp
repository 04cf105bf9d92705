// Pub/sub chat across edomains, including an SN state-loss event repaired
// by host-driven state reconstruction (paper §3.3, §6).
//
//   ./examples/pubsub_chat [--rooms=2] [--users=6]
#include <cstdio>

#include "common/flags.h"
#include "deploy/deployment.h"
#include "deploy/standard_services.h"
#include "services/clients/pubsub_client.h"

using namespace interedge;

int main(int argc, char** argv) {
  const flag_set flags = flag_set::parse_or_exit(argc, argv, {"rooms", "users"});
  const int n_rooms = static_cast<int>(flags.get_int("rooms", 2));
  const int n_users = static_cast<int>(flags.get_int("users", 6));

  std::printf("== pub/sub chat over the InterEdge ==\n\n");

  deploy::deployment net;
  const auto west = net.add_edomain();
  const auto east = net.add_edomain();
  const auto sn_w = net.add_sn(west);
  net.add_sn(west);
  net.add_sn(east);
  std::vector<host::host_stack*> users;
  for (int i = 0; i < n_users; ++i) {
    users.push_back(&net.add_host(i % 2 == 0 ? west : east));
  }
  net.interconnect();
  deploy::deploy_standard_services(net);

  // Pristine checkpoint of the western SN, taken before any subscriptions
  // exist — used below to emulate a crash that loses service state.
  const bytes pristine = net.sn(sn_w).checkpoint();

  std::vector<std::unique_ptr<services::pubsub_client>> clients;
  std::vector<int> inbox(users.size(), 0);
  for (std::size_t i = 0; i < users.size(); ++i) {
    clients.push_back(std::make_unique<services::pubsub_client>(*users[i]));
  }
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const std::string room = "room-" + std::to_string(i % n_rooms);
    clients[i]->subscribe(room, [&inbox, i](const std::string& topic, bytes payload) {
      std::printf("  user %zu @%s: %s\n", i, topic.c_str(), to_string(payload).c_str());
      ++inbox[i];
    });
  }
  net.run();
  std::printf("%d users joined %d rooms (cross-edomain membership via the "
              "lookup service).\n\n",
              n_users, n_rooms);

  std::printf("user 0 posts to room-0:\n");
  clients[0]->publish("room-0", to_bytes("hello everyone"));
  net.run();

  std::printf("\nuser 1 posts to room-%d:\n", 1 % n_rooms);
  clients[1]->publish("room-" + std::to_string(1 % n_rooms), to_bytes("hi from the east"));
  net.run();

  // --- SN failure and host-driven reconstruction (§3.3) ---
  std::printf("\n!! SN %llu crashes and restarts with blank service state\n",
              static_cast<unsigned long long>(sn_w));
  net.sn(sn_w).restore(pristine);

  std::printf("   user 0 posts again — subscribers behind the crashed SN miss it:\n");
  clients[0]->publish("room-0", to_bytes("anyone there?"));
  net.run();

  std::printf("   subscribers run host-driven reconstruction (resync)...\n");
  for (auto& c : clients) c->resync();
  net.run();

  std::printf("\nuser 2 posts to room-0 after recovery:\n");
  clients[2 % clients.size()]->publish("room-0", to_bytes("back to normal"));
  net.run();

  int total = 0;
  for (int i : inbox) total += i;
  std::printf("\n%d chat messages delivered in total.\n", total);
  return total > 0 ? 0 : 1;
}
