#include "scenario/suites.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/flight_recorder.h"
#include "common/metrics.h"
#include "common/serial.h"
#include "common/slo.h"
#include "common/timeseries.h"
#include "common/trace.h"
#include "core/service_node.h"
#include "deploy/deployment.h"
#include "deploy/standard_services.h"
#include "edomain/observability.h"
#include "scenario/workload.h"
#include "services/clients/content.h"
#include "services/clients/mobility_client.h"
#include "services/clients/pubsub_client.h"
#include "services/common.h"
#include "services/ddos.h"
#include "services/delivery.h"
#include "services/mobility.h"
#include "simnet/simulation.h"

namespace interedge::scenario {

namespace {

using namespace std::chrono_literals;
using core::peer_id;
using deploy::edomain_id;

// Every suite traces every send: the SLO plane's latency series is the
// trace collector's completion rollup, so sampling would starve it.
deploy::deployment_config scenario_config(std::uint64_t seed) {
  deploy::deployment_config cfg;
  cfg.seed = seed;
  cfg.trace_sample_shift = 0;
  cfg.host_path_span_capacity = 512;
  cfg.sn_path_span_capacity = 4096;
  cfg.hosts_allow_direct = false;
  return cfg;
}

// Simulation-scale burn windows (same shape slo_health_test validates): a
// page confirms over 10ms AND 20ms; warn over 40/80ms.
slo::burn_windows sim_windows() {
  slo::burn_windows w;
  w.fast_short = 10ms;
  w.fast_long = 20ms;
  w.page_burn = 14.4;
  w.slow_short = 40ms;
  w.slow_long = 80ms;
  w.warn_burn = 3.0;
  w.clear_after = 2;
  return w;
}

// Arms the plane's health store and one latency SLO keyed on the
// collector's per-service completion histogram.
void arm_latency_slo(edomain::observability_plane& plane, const std::string& slo_name,
                     const std::string& service_label, std::uint64_t threshold_ns) {
  timeseries_store::config series;
  series.window = 5ms;
  series.windows = 64;
  plane.enable_health(series, sim_windows());
  slo::slo_target t;
  t.name = slo_name;
  t.service = service_label;
  t.latency_series =
      render_metric_key("edomain.path.total_ns", {{"service", service_label}});
  t.threshold_ns = threshold_ns;
  t.error_budget = 0.01;
  plane.add_slo(t);
}

// SNs push merged metrics + drained spans into the plane on their own ticks.
void start_pushes(deploy::deployment& d, const std::vector<peer_id>& sns,
                  edomain::observability_plane& plane, std::uint64_t max_pushes) {
  for (const peer_id id : sns) {
    d.sn(id).start_observability_push(
        2ms,
        [&plane, id](const metrics_registry& merged,
                     std::span<const trace::path_span> spans) {
          plane.ingest(id, merged, spans);
        },
        max_pushes);
  }
}

// Control ticks every 5ms: fold host-side span ends into the plane
// (completing end-to-end latencies) and evaluate the SLOs.
void schedule_health_ticks(deploy::deployment& d, time_point t0, nanoseconds until,
                           std::vector<host::host_stack*> hosts,
                           edomain::observability_plane& plane) {
  for (nanoseconds off = 5ms; off <= until; off += 5ms) {
    d.net().at(t0 + off, [&d, hosts, &plane] {
      std::vector<trace::path_span> ends;
      for (host::host_stack* h : hosts) h->drain_path_spans(ends);
      plane.traces().ingest(std::span<const trace::path_span>(ends));
      plane.health_tick(d.net().now());
    });
  }
}

bytes stamped_payload(time_point now, std::size_t pad_to = 0) {
  writer w(16);
  w.u64(static_cast<std::uint64_t>(now.time_since_epoch().count()));
  bytes out = w.take();
  if (out.size() < pad_to) out.resize(pad_to, 0x5c);
  return out;
}

std::int64_t stamp_of(const bytes& payload) {
  reader r(payload);
  return static_cast<std::int64_t>(r.u64());
}

double p_quantile_ms(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  return v[idx];
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// Per-stream continuity: delivery counts, client-side latency, and the
// longest silence (the suite's unavailability-window measure).
struct stream_stats {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::int64_t first_sent_ns = -1;
  std::int64_t last_recv_ns = -1;
  std::int64_t max_gap_ns = 0;
  std::vector<double> latencies_ms;

  void on_sent(time_point now) {
    if (first_sent_ns < 0) first_sent_ns = now.time_since_epoch().count();
    ++sent;
  }
  void on_recv(time_point now, std::int64_t sent_ns) {
    const std::int64_t now_ns = now.time_since_epoch().count();
    const std::int64_t prev = last_recv_ns >= 0 ? last_recv_ns : first_sent_ns;
    if (prev >= 0) max_gap_ns = std::max(max_gap_ns, now_ns - prev);
    last_recv_ns = now_ns;
    ++received;
    latencies_ms.push_back(static_cast<double>(now_ns - sent_ns) / 1e6);
  }
  // Close the window at end of run: silence after the last delivery counts.
  void finish(time_point end) {
    if (last_recv_ns >= 0) {
      max_gap_ns = std::max(max_gap_ns, end.time_since_epoch().count() - last_recv_ns);
    }
  }
};

}  // namespace

// ---- flash_crowd -------------------------------------------------------
//
// CDN bundle under a 50x arrival spike: 8 clients behind one access SN
// fetch a 16-object Zipf(1.1) catalog from an origin two edomains away.
// The caching bundle must absorb the spike at the edge — p99 stays inside
// the latency SLO, the origin sees a small fraction of requests, and no
// burn-rate page fires.
scenario_report run_flash_crowd(std::uint64_t seed) {
  scenario_report rep;
  rep.suite = "flash_crowd";
  rep.seed = seed;

  deploy::deployment d(scenario_config(seed));
  const edomain_id dom1 = d.add_edomain();
  const peer_id gw1 = d.add_sn(dom1);
  const peer_id sn_a = d.add_sn(dom1);
  const edomain_id dom2 = d.add_edomain();
  const peer_id gw2 = d.add_sn(dom2);

  constexpr int kClients = 8;
  std::vector<host::host_stack*> clients;
  for (int i = 0; i < kClients; ++i) clients.push_back(&d.add_host(dom1, sn_a));
  host::host_stack& origin_host = d.add_host(dom2, gw2);
  d.interconnect();
  deploy::deploy_standard_services(d);

  behavior_digest digest;
  digest.attach(d.net());

  services::content_origin origin(origin_host);
  constexpr std::size_t kObjects = 16;
  std::vector<std::string> keys;
  for (std::size_t k = 0; k < kObjects; ++k) {
    keys.push_back("obj" + std::to_string(k));
    origin.put(keys.back(), bytes(600, static_cast<std::uint8_t>('a' + k)));
  }
  std::vector<std::unique_ptr<services::content_client>> fetchers;
  for (host::host_stack* c : clients) {
    fetchers.push_back(std::make_unique<services::content_client>(*c));
  }

  edomain::observability_plane& plane = d.core_of(dom1).observability();
  arm_latency_slo(plane, "content-p99", "delivery", 10'000'000);
  int pages = 0;
  plane.set_alert_hook([&pages](const slo::slo_alert& a) {
    if (a.state == slo::slo_state::page) ++pages;
  });
  start_pushes(d, {gw1, sn_a}, plane, /*max_pushes=*/60);

  const time_point t0 = d.net().now();
  std::vector<host::host_stack*> all_hosts = clients;
  all_hosts.push_back(&origin_host);
  schedule_health_ticks(d, t0, 110ms, all_hosts, plane);

  // 50x spike: 300 pps baseline, 15000 pps for 20ms, then cool-down.
  const rate_phase phases[] = {{0ms, 40ms, 300.0}, {40ms, 60ms, 15000.0},
                               {60ms, 80ms, 300.0}};
  const auto arrivals = poisson_arrivals(phases, derive_seed(seed, "flash.arrivals"));
  zipf_sampler catalog(kObjects, 1.1, derive_seed(seed, "flash.zipf"));

  std::uint64_t issued = 0, coalesced = 0, completed = 0;
  std::vector<double> fetch_ms;
  // Request collapsing, as a real edge cache front-end would: a client
  // never re-issues a key it already has in flight.
  std::vector<std::set<std::string>> outstanding(kClients);
  std::vector<std::map<std::string, std::int64_t>> issue_ns(kClients);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const int c = static_cast<int>(i % kClients);
    const std::string key = keys[catalog.next()];
    d.net().at(t0 + arrivals[i], [&, c, key] {
      if (!outstanding[c].insert(key).second) {
        ++coalesced;
        return;
      }
      ++issued;
      issue_ns[c][key] = d.net().now().time_since_epoch().count();
      fetchers[c]->fetch(origin_host.addr(), key, [&, c](const std::string& k, bytes) {
        ++completed;
        outstanding[c].erase(k);
        fetch_ms.push_back(
            static_cast<double>(d.net().now().time_since_epoch().count() - issue_ns[c][k]) /
            1e6);
      });
    });
  }

  d.net().run_until(t0 + 120ms);

  auto* dsvc = static_cast<services::delivery_service*>(
      d.sn(sn_a).env().module_for(ilp::svc::delivery));
  const std::uint64_t hits = dsvc->cache_hits();
  const std::uint64_t misses = dsvc->cache_misses();

  rep.checks.push_back(check_min("fetch_success_ratio", ratio(completed, issued), 0.99));
  rep.checks.push_back(check_max("fetch_p99_ms", p_quantile_ms(fetch_ms, 0.99), 10.0));
  rep.checks.push_back(check_min("edge_cache_hit_ratio", ratio(hits, hits + misses), 0.5));
  rep.checks.push_back(
      check_max("origin_load_fraction", ratio(origin.requests_served(), issued), 0.5));
  rep.checks.push_back(check_max("slo_pages", static_cast<double>(pages), 0.0));

  rep.stats["arrivals"] = static_cast<double>(arrivals.size());
  rep.stats["issued"] = static_cast<double>(issued);
  rep.stats["coalesced"] = static_cast<double>(coalesced);
  rep.stats["origin_served"] = static_cast<double>(origin.requests_served());
  rep.stats["edge_cache_hits"] = static_cast<double>(hits);
  rep.stats["edge_cache_misses"] = static_cast<double>(misses);
  rep.stats["packets"] = static_cast<double>(digest.packets());
  if (plane.series() != nullptr) {
    const std::string key =
        render_metric_key("edomain.path.total_ns", {{"service", "delivery"}});
    rep.stats["plane_completed"] =
        static_cast<double>(plane.series()->hist_count(key, 200ms));
    rep.stats["plane_p99_ms"] =
        static_cast<double>(plane.series()->hist_quantile(key, 200ms, 0.99)) / 1e6;
  }
  rep.behavior_digest = digest.value();
  return rep;
}

// ---- pubsub_storm ------------------------------------------------------
//
// Fan-out amplification across three edomains: one publisher, six
// subscribers spread over every domain, and a 20x publish storm. Every
// publish amplifies into six cross-domain deliveries; the suite verdicts
// delivery completeness and end-to-end latency under the storm.
scenario_report run_pubsub_storm(std::uint64_t seed) {
  scenario_report rep;
  rep.suite = "pubsub_storm";
  rep.seed = seed;

  deploy::deployment d(scenario_config(seed));
  const edomain_id dom1 = d.add_edomain();
  const peer_id gw1 = d.add_sn(dom1);
  const peer_id sn_a = d.add_sn(dom1);
  const edomain_id dom2 = d.add_edomain();
  const peer_id gw2 = d.add_sn(dom2);
  const edomain_id dom3 = d.add_edomain();
  const peer_id gw3 = d.add_sn(dom3);

  host::host_stack& publisher = d.add_host(dom1, sn_a);
  std::vector<host::host_stack*> sub_hosts;
  sub_hosts.push_back(&d.add_host(dom1, sn_a));
  sub_hosts.push_back(&d.add_host(dom1, gw1));
  sub_hosts.push_back(&d.add_host(dom2, gw2));
  sub_hosts.push_back(&d.add_host(dom2, gw2));
  sub_hosts.push_back(&d.add_host(dom3, gw3));
  sub_hosts.push_back(&d.add_host(dom3, gw3));
  d.interconnect();
  deploy::deploy_standard_services(d);

  behavior_digest digest;
  digest.attach(d.net());

  services::pubsub_client pub(publisher);
  std::vector<std::unique_ptr<services::pubsub_client>> subs;
  std::uint64_t delivered = 0;
  std::vector<double> deliver_ms;
  for (host::host_stack* h : sub_hosts) {
    subs.push_back(std::make_unique<services::pubsub_client>(*h));
    subs.back()->subscribe("storm", [&, h](const std::string&, bytes payload) {
      ++delivered;
      deliver_ms.push_back(
          static_cast<double>(d.net().now().time_since_epoch().count() - stamp_of(payload)) /
          1e6);
    });
  }
  d.run();  // subscriptions propagate

  edomain::observability_plane& plane = d.core_of(dom1).observability();
  arm_latency_slo(plane, "pubsub-p99", "pubsub", 10'000'000);
  int pages = 0;
  plane.set_alert_hook([&pages](const slo::slo_alert& a) {
    if (a.state == slo::slo_state::page) ++pages;
  });
  start_pushes(d, {gw1, sn_a}, plane, /*max_pushes=*/60);

  const time_point t0 = d.net().now();
  std::vector<host::host_stack*> all_hosts = sub_hosts;
  all_hosts.push_back(&publisher);
  schedule_health_ticks(d, t0, 110ms, all_hosts, plane);

  // 20x storm: 200 pps baseline, 4000 pps for 20ms, then cool-down.
  const rate_phase phases[] = {{0ms, 40ms, 200.0}, {40ms, 60ms, 4000.0},
                               {60ms, 80ms, 200.0}};
  const auto arrivals = poisson_arrivals(phases, derive_seed(seed, "storm.arrivals"));
  std::uint64_t publishes = 0;
  for (const nanoseconds when : arrivals) {
    d.net().at(t0 + when, [&] {
      ++publishes;
      pub.publish("storm", stamped_payload(d.net().now()));
    });
  }

  d.net().run_until(t0 + 120ms);

  const std::uint64_t expected = publishes * sub_hosts.size();
  rep.checks.push_back(check_min("delivery_ratio", ratio(delivered, expected), 0.98));
  rep.checks.push_back(check_max("deliver_p99_ms", p_quantile_ms(deliver_ms, 0.99), 10.0));
  rep.checks.push_back(check_max("slo_pages", static_cast<double>(pages), 0.0));

  rep.stats["publishes"] = static_cast<double>(publishes);
  rep.stats["delivered"] = static_cast<double>(delivered);
  rep.stats["subscribers"] = static_cast<double>(sub_hosts.size());
  rep.stats["packets"] = static_cast<double>(digest.packets());
  rep.stats["amplification"] =
      publishes == 0 ? 0.0 : static_cast<double>(digest.packets()) / publishes;
  if (plane.series() != nullptr) {
    const std::string key =
        render_metric_key("edomain.path.total_ns", {{"service", "pubsub"}});
    rep.stats["plane_completed"] =
        static_cast<double>(plane.series()->hist_count(key, 200ms));
  }
  rep.behavior_digest = digest.value();
  return rep;
}

// ---- ddos_mix ----------------------------------------------------------
//
// Volumetric + spoofed attack through a bandwidth-limited edge. Phase A
// (unprotected): an east attacker floods the victim's 16 Mbps access link
// at ~24 Mbps offered; queueing delay drives legitimate p99 over the SLO,
// the burn-rate monitor pages, and the page freezes the edge SNs' flight
// recorders. Phase B (protect at 60ms): the victim turns on protection at
// every edge SN — allowlist+uRPF admits the west sender, a capability
// token admits the east sender, the flood and a spoofed wave claiming the
// allowlisted address are shed at their entry edge — and legitimate p99
// recovers inside the SLO while delivery stays lossless.
scenario_report run_ddos_mix(std::uint64_t seed) {
  scenario_report rep;
  rep.suite = "ddos_mix";
  rep.seed = seed;

  deploy::deployment d(scenario_config(seed));
  const edomain_id west = d.add_edomain();
  const peer_id gw_w = d.add_sn(west);
  const peer_id sn_w = d.add_sn(west);
  const edomain_id east = d.add_edomain();
  const peer_id gw_e = d.add_sn(east);

  host::host_stack& victim = d.add_host(west, sn_w);
  host::host_stack& legit_w = d.add_host(west, gw_w);
  host::host_stack& legit_e = d.add_host(east, gw_e);
  host::host_stack& attacker = d.add_host(east, gw_e);
  host::host_stack& spoofer = d.add_host(east, gw_e);
  d.interconnect();

  // One token secret across the deployment's SNs so a capability minted at
  // the victim's edge verifies at the attack's entry edge too.
  deploy::standard_services_config svc_cfg;
  svc_cfg.ddos = false;
  deploy::deploy_standard_services(d, svc_cfg);
  const std::uint64_t secret_seed = derive_seed(seed, "ddos.secret");
  d.deploy_service([secret_seed](edomain::domain_core&, peer_id) {
    return std::make_unique<services::ddos_service>(1000.0, 200.0, secret_seed);
  });

  // The victim's access link is the bottleneck: 16 Mbps, so the ~24 Mbps
  // flood builds a queue and every legitimate packet behind it waits.
  sim::link_properties bottleneck;
  bottleneck.latency = std::chrono::microseconds(500);
  bottleneck.bandwidth_bps = 16'000'000;
  d.net().set_link_symmetric(static_cast<sim::node_id>(gw_w),
                             static_cast<sim::node_id>(sn_w), bottleneck);

  behavior_digest digest;
  digest.attach(d.net());

  edomain::observability_plane& plane = d.core_of(west).observability();
  arm_latency_slo(plane, "legit-p99", "ddos", 10'000'000);
  int pages = 0;
  std::int64_t first_page_ns = 0;
  plane.set_alert_hook([&](const slo::slo_alert& a) {
    if (a.state != slo::slo_state::page) return;
    ++pages;
    if (first_page_ns == 0) {
      first_page_ns = static_cast<std::int64_t>(a.at_ns);
      // Pager's first move: freeze the edge SNs' black boxes so the spans
      // that tripped the burn survive as a postmortem.
      d.sn(sn_w).blackbox()->trigger(kTrigSloPage, a.at_ns);
      d.sn(gw_w).blackbox()->trigger(kTrigSloPage, a.at_ns);
    }
  });
  start_pushes(d, {gw_w, sn_w, gw_e}, plane, /*max_pushes=*/70);

  const time_point t0 = d.net().now();
  schedule_health_ticks(d, t0, 135ms, {&victim, &legit_w, &legit_e}, plane);

  // Victim-side accounting: legitimate payloads are an 8-byte timestamp,
  // attack payloads are 1000 bytes with the timestamp up front. Windows
  // bucket by SEND time — a packet sent during the flood but delivered
  // after the queue drains belongs to the attack phase, not recovery.
  const std::int64_t protect_ns = (t0 + 62ms).time_since_epoch().count();
  const std::int64_t attack_lo = (t0 + 25ms).time_since_epoch().count();
  const std::int64_t attack_hi = (t0 + 55ms).time_since_epoch().count();
  const std::int64_t recover_lo = (t0 + 95ms).time_since_epoch().count();
  std::uint64_t legit_recv = 0, attack_recv_pre = 0, attack_recv_post = 0;
  std::uint64_t token_acks = 0;
  std::vector<double> legit_attack_ms, legit_recovery_ms;
  victim.set_default_handler([&](const ilp::ilp_header&, bytes payload) {
    const std::int64_t sent_ns = stamp_of(payload);
    if (payload.size() >= 1000) {
      (sent_ns >= protect_ns ? attack_recv_post : attack_recv_pre)++;
      return;
    }
    ++legit_recv;
    const std::int64_t now_ns = d.net().now().time_since_epoch().count();
    const double ms = static_cast<double>(now_ns - sent_ns) / 1e6;
    if (sent_ns >= attack_lo && sent_ns < attack_hi) legit_attack_ms.push_back(ms);
    if (sent_ns >= recover_lo) legit_recovery_ms.push_back(ms);
  });
  // The allow op replies with the minted token over a control packet;
  // without a control handler it would fall through to the data handler.
  victim.set_control_handler(ilp::svc::ddos_protect,
                             [&token_acks](const ilp::ilp_header&, bytes) { ++token_acks; });

  host::connection conn_w = legit_w.open(victim.addr(), ilp::svc::ddos_protect);
  host::connection conn_e = legit_e.open(victim.addr(), ilp::svc::ddos_protect);
  // Mint the east sender's capability up front (the secret is fixed at
  // deploy); it is inert until the victim turns protection on.
  d.net().at(t0 + 1ms, [&] {
    auto* mod = static_cast<services::ddos_service*>(
        d.sn(gw_e).env().module_for(ilp::svc::ddos_protect));
    const bytes tok = mod->token_for(victim.addr(), legit_e.addr());
    conn_e.set_option_str(
        static_cast<ilp::meta_key>(services::skey::auth_token),
        std::string_view(reinterpret_cast<const char*>(tok.data()), tok.size()));
  });

  // Legitimate flows: 200 pps each, the whole run.
  std::uint64_t legit_sent = 0;
  const rate_phase legit_span[] = {{2ms, 120ms, 200.0}};
  for (const nanoseconds when :
       poisson_arrivals(legit_span, derive_seed(seed, "ddos.legit_w"))) {
    d.net().at(t0 + when, [&] {
      ++legit_sent;
      conn_w.send(stamped_payload(d.net().now()));
    });
  }
  for (const nanoseconds when :
       poisson_arrivals(legit_span, derive_seed(seed, "ddos.legit_e"))) {
    d.net().at(t0 + when, [&] {
      ++legit_sent;
      conn_e.send(stamped_payload(d.net().now()));
    });
  }

  // The flood: 3000 pps of 1000-byte packets, each on a fresh connection
  // (so pre-protect every packet takes its own slow-path verdict).
  std::uint64_t attack_sent_pre = 0, attack_sent_post = 0;
  {
    const rate_phase flood[] = {{5ms, 120ms, 3000.0}};
    std::uint64_t conn = 100000;
    for (const nanoseconds when :
         poisson_arrivals(flood, derive_seed(seed, "ddos.flood"))) {
      d.net().at(t0 + when, [&, conn] {
        const time_point now = d.net().now();
        (now.time_since_epoch().count() >= protect_ns ? attack_sent_post
                                                      : attack_sent_pre)++;
        ilp::ilp_header h;
        h.service = ilp::svc::ddos_protect;
        h.connection = conn;
        h.flags = ilp::kFlagFromHost;
        h.set_meta_u64(ilp::meta_key::src_addr, attacker.addr());
        h.set_meta_u64(ilp::meta_key::dest_addr, victim.addr());
        attacker.pipes().send(attacker.first_hop_sn(), h, stamped_payload(now, 1000));
      });
      ++conn;
    }
  }

  // Spoofed wave after mitigation: claims the allowlisted west sender's
  // address from the east edge — uRPF kills it at gw_e.
  {
    const rate_phase wave[] = {{70ms, 110ms, 500.0}};
    std::uint64_t conn = 500000;
    for (const nanoseconds when :
         poisson_arrivals(wave, derive_seed(seed, "ddos.spoof"))) {
      d.net().at(t0 + when, [&, conn] {
        ilp::ilp_header h;
        h.service = ilp::svc::ddos_protect;
        h.connection = conn;
        h.flags = ilp::kFlagFromHost;
        h.set_meta_u64(ilp::meta_key::src_addr, legit_w.addr());  // spoofed
        h.set_meta_u64(ilp::meta_key::dest_addr, victim.addr());
        spoofer.pipes().send(spoofer.first_hop_sn(), h,
                             stamped_payload(d.net().now(), 1000));
      });
      ++conn;
    }
  }

  // Mitigation at 60ms: protect + allowlist at every edge SN. Protection
  // purges the attack's cached forward verdicts (ddos invalidate-on-
  // protect), so the flood re-faces default-deny at its entry edge.
  const std::vector<peer_id> edges = {sn_w, gw_w, gw_e};
  d.net().at(t0 + 60ms, [&] {
    for (const peer_id sn : edges) {
      victim.send_control_to(sn, ilp::svc::ddos_protect, services::ops::protect, {});
    }
  });
  d.net().at(t0 + 60ms + 200us, [&] {
    for (const peer_id sn : edges) {
      writer w(8);
      w.u64(legit_w.addr());
      victim.send_control_to(sn, ilp::svc::ddos_protect, services::ops::allow, w.take());
    }
    // Short-TTL fast-path entries for admitted flows: legitimate traffic
    // survives slow-path pressure, the rate limit re-checks on expiry.
    for (const peer_id sn : edges) {
      d.sn(sn).env().set_config(ilp::svc::ddos_protect, "admit_cache_ttl_ms", "5");
    }
  });

  d.net().run_until(t0 + 140ms);

  auto* gw_e_mod = static_cast<services::ddos_service*>(
      d.sn(gw_e).env().module_for(ilp::svc::ddos_protect));

  rep.checks.push_back(check_min("slo_pages", static_cast<double>(pages), 1.0));
  rep.checks.push_back(check_min(
      "blackbox_frozen", d.sn(sn_w).blackbox()->frozen() ? 1.0 : 0.0, 1.0));
  rep.checks.push_back(check_min(
      "attack_degrades_legit_p99",
      p_quantile_ms(legit_attack_ms, 0.99), 10.0));  // degradation was demanded
  rep.checks.push_back(
      check_max("legit_recovery_p99_ms", p_quantile_ms(legit_recovery_ms, 0.99), 10.0));
  rep.checks.push_back(
      check_min("legit_delivery_ratio", ratio(legit_recv, legit_sent), 0.99));
  rep.checks.push_back(check_min(
      "attack_shed_fraction",
      attack_sent_post == 0
          ? 0.0
          : 1.0 - ratio(attack_recv_post, attack_sent_post),
      0.95));
  rep.checks.push_back(
      check_min("spoof_rejections", static_cast<double>(gw_e_mod->spoof_rejected()), 1.0));

  rep.stats["legit_sent"] = static_cast<double>(legit_sent);
  rep.stats["legit_recv"] = static_cast<double>(legit_recv);
  rep.stats["attack_sent_pre"] = static_cast<double>(attack_sent_pre);
  rep.stats["attack_sent_post"] = static_cast<double>(attack_sent_post);
  rep.stats["attack_recv_pre"] = static_cast<double>(attack_recv_pre);
  rep.stats["attack_recv_post"] = static_cast<double>(attack_recv_post);
  rep.stats["attack_p99_ms_during"] = p_quantile_ms(legit_attack_ms, 0.99);
  rep.stats["token_acks"] = static_cast<double>(token_acks);
  rep.stats["denied_at_entry_edge"] = static_cast<double>(gw_e_mod->denied());
  rep.stats["spoof_rejected"] = static_cast<double>(gw_e_mod->spoof_rejected());
  rep.stats["first_page_ms"] = static_cast<double>(first_page_ns) / 1e6;
  rep.stats["packets"] = static_cast<double>(digest.packets());
  rep.notes.push_back(
      "attack_degrades_legit_p99 is a min-check: phase A must demonstrably "
      "breach the SLO before mitigation earns the recovery verdict");
  rep.behavior_digest = digest.value();
  return rep;
}

// ---- mobility_churn ----------------------------------------------------
//
// Endpoints re-anchor between SNs mid-flow with re-keying, while faults
// land mid-migration: an inter-domain partition blips during one move and
// the old SN crashes outright during another. Cached forward verdicts
// pointing at the dead SN are purged on liveness peer-down (the
// erase-forwards-to path), breadcrumbs chase stale-routed stragglers, and
// expired breadcrumbs fall back to the refreshed lookup route. Verdicts:
// bounded loss, bounded unavailability windows, and crumbs observed doing
// their job.
scenario_report run_mobility_churn(std::uint64_t seed) {
  scenario_report rep;
  rep.suite = "mobility_churn";
  rep.seed = seed;

  deploy::deployment_config cfg = scenario_config(seed);
  cfg.sn_keepalive_interval = 2ms;  // liveness drives the crash detection
  deploy::deployment d(cfg);
  const edomain_id dom1 = d.add_edomain();
  const peer_id gw1 = d.add_sn(dom1);
  const peer_id sn_a = d.add_sn(dom1);
  const peer_id sn_b = d.add_sn(dom1);
  const edomain_id dom2 = d.add_edomain();
  const peer_id gw2 = d.add_sn(dom2);

  constexpr int kStreams = 3;
  std::vector<host::host_stack*> mobiles, peers;
  for (int i = 0; i < kStreams; ++i) mobiles.push_back(&d.add_host(dom1, sn_a));
  for (int i = 0; i < kStreams; ++i) peers.push_back(&d.add_host(dom2, gw2));
  host::host_stack& w_peer = d.add_host(dom1, gw1);
  d.interconnect();
  deploy::deploy_standard_services(d);
  for (const peer_id sn : {gw1, sn_a, sn_b, gw2}) {
    d.sn(sn).env().set_config(ilp::svc::mobility, "breadcrumb_ttl_ms", "25");
  }

  behavior_digest digest;
  digest.attach(d.net());

  edomain::observability_plane& plane = d.core_of(dom1).observability();
  arm_latency_slo(plane, "mobility-p99", "mobility", 10'000'000);
  plane.set_alert_hook([](const slo::slo_alert&) {});
  start_pushes(d, {gw1, sn_a, sn_b}, plane, /*max_pushes=*/70);

  const time_point t0 = d.net().now();
  {
    std::vector<host::host_stack*> all_hosts = mobiles;
    for (host::host_stack* p : peers) all_hosts.push_back(p);
    all_hosts.push_back(&w_peer);
    schedule_health_ticks(d, t0, 125ms, all_hosts, plane);
  }

  // Streams: p0->m0 rides delivery (the cached-verdict datapath), p1->m1
  // and p2->m2 ride the mobility service (the breadcrumb datapath).
  std::vector<stream_stats> streams(kStreams);
  const ilp::service_id stream_svc[kStreams] = {ilp::svc::delivery, ilp::svc::mobility,
                                                ilp::svc::mobility};
  std::vector<host::connection> conns;
  for (int i = 0; i < kStreams; ++i) {
    conns.push_back(peers[i]->open(mobiles[i]->addr(), stream_svc[i]));
    mobiles[i]->set_default_handler([&, i](const ilp::ilp_header&, bytes payload) {
      streams[i].on_recv(d.net().now(), stamp_of(payload));
    });
  }
  for (nanoseconds off = 1ms; off <= 110ms; off += 1ms) {
    for (int i = 0; i < kStreams; ++i) {
      d.net().at(t0 + off, [&, i] {
        streams[i].on_sent(d.net().now());
        conns[i].send(stamped_payload(d.net().now()));
      });
    }
  }

  // Migrations: every mobile re-homes to sn_b mid-flow, announcing through
  // the new SN and rotating its pipe keys en route.
  std::vector<std::unique_ptr<services::mobility_client>> mcs;
  for (host::host_stack* m : mobiles) {
    mcs.push_back(std::make_unique<services::mobility_client>(*m));
  }
  const nanoseconds migrate_at[kStreams] = {50ms, 20ms, 25ms};
  for (int i = 0; i < kStreams; ++i) {
    d.net().at(t0 + migrate_at[i], [&, i] {
      mobiles[i]->rehome(sn_b);
      mcs[i]->announce();
      mobiles[i]->rotate_keys();
    });
  }

  // Stale-routed stragglers: a west peer keeps aiming m1's traffic at the
  // OLD SN after the move (in-flight / unconverged routing state). Inside
  // the 25ms crumb TTL the breadcrumb chases them to sn_b; the one at 48ms
  // lands after expiry and must fall back to the refreshed lookup route.
  std::uint64_t stale_sent = 0;
  auto stale_send = [&] {
    ++stale_sent;
    streams[1].on_sent(d.net().now());
    ilp::ilp_header h;
    h.service = ilp::svc::mobility;
    h.connection = 7777;
    h.set_meta_u64(ilp::meta_key::src_addr, w_peer.addr());
    h.set_meta_u64(ilp::meta_key::dest_addr, mobiles[1]->addr());
    w_peer.pipes().send(sn_a, h, stamped_payload(d.net().now()));
  };
  for (nanoseconds off = 21ms; off <= 29ms; off += 1ms) {
    d.net().at(t0 + off, stale_send);
  }
  d.net().at(t0 + 48ms, stale_send);

  // Faults mid-migration: a 4ms inter-domain partition blip right after
  // m2's move (below the liveness miss budget — transport-level loss, not
  // a peer-down), then the old SN crashes for real during m0's move. The
  // crash strands gw1's cached delivery forwards until liveness declares
  // the peer down and erase_forwards_to purges them.
  const std::int64_t base = t0.time_since_epoch().count();
  const std::vector<sim::fault_event> faults = {
      {.at = nanoseconds(base) + 30ms,
       .kind = sim::fault_kind::partition,
       .a = static_cast<sim::node_id>(gw1),
       .b = static_cast<sim::node_id>(gw2)},
      {.at = nanoseconds(base) + 34ms,
       .kind = sim::fault_kind::heal,
       .a = static_cast<sim::node_id>(gw1),
       .b = static_cast<sim::node_id>(gw2)},
      {.at = nanoseconds(base) + 52ms,
       .kind = sim::fault_kind::crash,
       .a = static_cast<sim::node_id>(sn_a)},
      {.at = nanoseconds(base) + 80ms,
       .kind = sim::fault_kind::restart,
       .a = static_cast<sim::node_id>(sn_a)},
  };
  d.net().schedule_faults(faults);

  d.net().run_until(t0 + 130ms);
  for (stream_stats& s : streams) s.finish(t0 + 111ms);

  std::uint64_t sent = 0, received = 0;
  double max_gap_ms = 0.0;
  for (const stream_stats& s : streams) {
    sent += s.sent;
    received += s.received;
    max_gap_ms = std::max(max_gap_ms, static_cast<double>(s.max_gap_ns) / 1e6);
  }
  auto* old_sn_mob = static_cast<services::mobility_service*>(
      d.sn(sn_a).env().module_for(ilp::svc::mobility));
  auto* new_sn_mob = static_cast<services::mobility_service*>(
      d.sn(sn_b).env().module_for(ilp::svc::mobility));
  const std::uint64_t crumb_expired =
      d.sn(sn_a).metrics().get_counter("mobility.breadcrumbs_expired").value();

  rep.checks.push_back(check_min("delivered_ratio", ratio(received, sent), 0.90));
  rep.checks.push_back(check_max("max_outage_ms", max_gap_ms, 14.0));
  rep.checks.push_back(check_min(
      "announces", static_cast<double>(new_sn_mob->announces()), kStreams));
  rep.checks.push_back(check_min(
      "breadcrumb_forwards",
      static_cast<double>(old_sn_mob->forwarded_via_breadcrumb()), 5.0));
  rep.checks.push_back(
      check_min("breadcrumbs_expired", static_cast<double>(crumb_expired), 1.0));
  rep.checks.push_back(check_min(
      "peer_down_cache_purges",
      static_cast<double>(d.sn(gw1).cache().stats().invalidations), 1.0));

  for (int i = 0; i < kStreams; ++i) {
    rep.stats["stream" + std::to_string(i) + "_sent"] = static_cast<double>(streams[i].sent);
    rep.stats["stream" + std::to_string(i) + "_recv"] =
        static_cast<double>(streams[i].received);
    rep.stats["stream" + std::to_string(i) + "_max_gap_ms"] =
        static_cast<double>(streams[i].max_gap_ns) / 1e6;
  }
  rep.stats["stale_sent"] = static_cast<double>(stale_sent);
  rep.stats["breadcrumbed"] = static_cast<double>(old_sn_mob->forwarded_via_breadcrumb());
  rep.stats["crumbs_expired"] = static_cast<double>(crumb_expired);
  rep.stats["gw1_cache_invalidations"] =
      static_cast<double>(d.sn(gw1).cache().stats().invalidations);
  rep.stats["packets"] = static_cast<double>(digest.packets());
  if (plane.series() != nullptr) {
    const std::string key =
        render_metric_key("edomain.path.total_ns", {{"service", "mobility"}});
    rep.stats["plane_mobility_completed"] =
        static_cast<double>(plane.series()->hist_count(key, 250ms));
  }
  rep.behavior_digest = digest.value();
  return rep;
}

// ---- dispatch ----------------------------------------------------------

std::vector<std::string_view> suite_names() {
  return {"flash_crowd", "pubsub_storm", "ddos_mix", "mobility_churn"};
}

scenario_report run_suite(std::string_view name, std::uint64_t seed) {
  if (name == "flash_crowd") return run_flash_crowd(seed);
  if (name == "pubsub_storm") return run_pubsub_storm(seed);
  if (name == "ddos_mix") return run_ddos_mix(seed);
  if (name == "mobility_churn") return run_mobility_churn(seed);
  throw std::invalid_argument("unknown scenario suite: " + std::string(name));
}

}  // namespace interedge::scenario
