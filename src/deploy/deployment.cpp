#include "deploy/deployment.h"

#include <stdexcept>

namespace interedge::deploy {

deployment::deployment(deployment_config config)
    : config_(config), net_(config.seed), id_rng_(config.seed ^ 0xdeafbeadull) {}

deployment::~deployment() = default;

edomain_id deployment::add_edomain() {
  const edomain_id id = next_domain_++;
  cores_.emplace(id, std::make_unique<edomain::domain_core>(id, directory_));
  return id;
}

peer_id deployment::add_sn(edomain_id domain) {
  auto core_it = cores_.find(domain);
  if (core_it == cores_.end()) throw std::invalid_argument("add_sn: unknown edomain");

  const sim::node_id node = net_.add_node(nullptr);
  auto router = std::make_unique<edomain::sn_router>(node, *core_it->second, directory_,
                                                     config_.direct_interdomain);
  auto sn = std::make_unique<core::service_node>(
      core::sn_config{.id = node,
                      .edomain = domain,
                      .cache_hash_seed = id_rng_.next(),
                      .path_span_capacity = config_.sn_path_span_capacity,
                      .keepalive_interval = config_.sn_keepalive_interval,
                      .liveness_jitter_seed = id_rng_.next() | 1},
      net_.sim_clock(),
      [this, node](peer_id to, bytes datagram) {
        net_.send(node, static_cast<sim::node_id>(to), std::move(datagram));
      },
      [this](nanoseconds delay, std::function<void()> fn) { net_.after(delay, std::move(fn)); },
      router.get());
  net_.set_handler(node, [raw = sn.get()](sim::node_id from, const bytes& data) {
    raw->on_datagram(from, data);
  });

  core_it->second->add_sn(node);
  routers_.emplace(node, std::move(router));
  sns_.emplace(node, std::move(sn));
  sn_domain_[node] = domain;

  // SNs are themselves routable endpoints (services address each other —
  // oDNS proxies, message-queue homes): register a directory record whose
  // only associated SN is the node itself.
  lookup::host_record record;
  record.addr = node;
  record.service_nodes = {node};
  record.edomain = domain;
  directory_.register_host(record);
  return node;
}

host::host_stack& deployment::add_host(edomain_id domain, peer_id sn,
                                       std::vector<peer_id> fallback_sns) {
  if (sn == 0) {
    const auto in_domain = sns_in(domain);
    if (in_domain.empty()) throw std::invalid_argument("add_host: edomain has no SNs");
    sn = in_domain.front();
  }

  const sim::node_id node = net_.add_node(nullptr);
  host::host_config cfg;
  cfg.addr = node;
  cfg.first_hop_sn = sn;
  cfg.fallback_sns = fallback_sns;
  cfg.allow_direct = config_.hosts_allow_direct;
  cfg.path_span_capacity = config_.host_path_span_capacity;
  cfg.trace_sample_shift = config_.trace_sample_shift;
  auto stack = std::make_unique<host::host_stack>(
      cfg, net_.sim_clock(),
      [this, node](peer_id to, bytes datagram) {
        net_.send(node, static_cast<sim::node_id>(to), std::move(datagram));
      },
      [this](nanoseconds delay, std::function<void()> fn) { net_.after(delay, std::move(fn)); },
      &directory_);
  net_.set_handler(node, [raw = stack.get()](sim::node_id from, const bytes& data) {
    raw->on_datagram(from, data);
  });

  // Identity + lookup registration.
  host_identity identity;
  identity.addr = node;
  crypto::x25519_key seed;
  id_rng_.fill(seed);
  identity.keys = crypto::x25519_keypair_from_seed(seed);
  identity.first_hop_sn = sn;
  identity.domain = domain;
  identities_[node] = identity;

  lookup::host_record record;
  record.addr = node;
  record.owner_public = identity.keys.public_key;
  record.service_nodes = {sn};
  record.service_nodes.insert(record.service_nodes.end(), fallback_sns.begin(),
                              fallback_sns.end());
  record.edomain = domain;
  directory_.register_host(record);

  auto [it, inserted] = hosts_.emplace(node, std::move(stack));
  return *it->second;
}

void deployment::interconnect() {
  // Designate gateways (each edomain's first SN) and set up the full mesh.
  for (auto& [domain_a, core_a] : cores_) {
    for (auto& [domain_b, core_b] : cores_) {
      if (domain_a >= domain_b) continue;
      const auto sns_a = sns_in(domain_a);
      const auto sns_b = sns_in(domain_b);
      if (sns_a.empty() || sns_b.empty()) continue;
      const peer_id gateway_a = sns_a.front();
      const peer_id gateway_b = sns_b.front();
      core_a->set_gateway(domain_b, gateway_a, gateway_b);
      core_b->set_gateway(domain_a, gateway_b, gateway_a);
      // The long-lived ILP peering pipe (§3.2: "at least one pair of SNs
      // (one in each edomain) directly connected by a long-lived ILP
      // connection").
      sns_.at(gateway_a)->peer_with(gateway_b);
    }
  }

  // Settlement tap: every datagram crossing an edomain boundary between
  // two SNs is recorded (and, per §5, settles to zero).
  net_.set_tap([this](sim::node_id from, sim::node_id to, const bytes& data) {
    auto fit = sn_domain_.find(from);
    auto tit = sn_domain_.find(to);
    if (fit == sn_domain_.end() || tit == sn_domain_.end()) return;
    if (fit->second == tit->second) return;
    ledger_.record_transfer(fit->second, tit->second, data.size());
  });

  interconnected_ = true;
  if (config_.sn_keepalive_interval.count() > 0) {
    // Recurring keepalive ticks keep the event queue non-empty forever, so
    // an unbounded run() would spin the clock deep into simulated time and
    // strand everything the caller schedules afterwards. A few link RTTs
    // is enough for the peering handshakes to settle.
    net_.run_until(net_.now() + std::chrono::milliseconds(5));
  } else {
    net_.run();  // let the peering handshakes complete
  }
}

void deployment::deploy_service(const module_factory& factory) {
  for (auto& [id, sn] : sns_) {
    sn->env().deploy(factory(*cores_.at(sn_domain_.at(id)), id));
  }
}

void deployment::deploy_service_simple(
    const std::function<std::unique_ptr<core::service_module>()>& factory) {
  for (auto& [id, sn] : sns_) {
    sn->env().deploy(factory());
  }
}

void deployment::provision_attestation(enclave::attestation_authority& authority,
                                       const enclave::measurement& golden,
                                       const std::string& label) {
  for (auto& [id, sn] : sns_) {
    auto device = std::make_unique<enclave::tpm>(authority.provision(id));
    device->extend(golden);
    tpms_[id] = std::move(device);
  }
  // Golden register value: one extend of the golden measurement from zero.
  enclave::tpm gold(bytes{});
  gold.extend(golden);
  authority.expect(label, gold.register_value());
}

bool deployment::attest_sn(enclave::attestation_authority& authority, peer_id sn,
                           const std::string& label, const_byte_span nonce) const {
  auto it = tpms_.find(sn);
  if (it == tpms_.end()) return false;
  return authority.verify(sn, label, nonce, it->second->quote(nonce));
}

enclave::tpm* deployment::tpm_of(peer_id sn) {
  auto it = tpms_.find(sn);
  return it == tpms_.end() ? nullptr : it->second.get();
}

std::vector<peer_id> deployment::sns_in(edomain_id domain) const {
  std::vector<peer_id> out;
  for (const auto& [id, d] : sn_domain_) {
    if (d == domain) out.push_back(id);
  }
  return out;
}

}  // namespace interedge::deploy
