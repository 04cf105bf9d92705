// SLO health plane end to end (ISSUE 7) over the deterministic simulator:
// an injected latency fault must trip the fast-window burn-rate page on the
// edomain plane, the page must freeze an SN's black-box flight recorder
// into a postmortem that contains the triggering spans, a stalled worker
// shard must be flagged by the SN watchdog, and plane rollups must survive
// restart/duplicate churn without double-counting — all replayable from a
// seeded fault schedule. This binary is also a sanitizer CI target
// (tools/ci_sanitizers.sh, ctest -R slo_health_test).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <string>
#include <vector>

#include "common/flight_recorder.h"
#include "common/metrics.h"
#include "common/slo.h"
#include "common/timeseries.h"
#include "common/trace.h"
#include "core/service_node.h"
#include "core/test_modules.h"
#include "deploy/deployment.h"
#include "deploy/standard_services.h"
#include "edomain/observability.h"
#include "simnet/simulation.h"

namespace interedge {
namespace {

using namespace std::chrono_literals;
using core::peer_id;
using edomain::edomain_id;

deploy::deployment_config tracing_config(std::uint64_t seed = 1) {
  deploy::deployment_config cfg;
  cfg.seed = seed;
  cfg.trace_sample_shift = 0;  // trace every send
  cfg.host_path_span_capacity = 512;
  cfg.sn_path_span_capacity = 4096;
  cfg.hosts_allow_direct = false;
  return cfg;
}

// Same 3-hop, 2-edomain shape as path_trace_test: alice -> sn_a -> gw1 ->
// gw2 -> bob.
struct three_hop_fixture {
  deploy::deployment net;
  edomain_id dom1, dom2;
  peer_id gw1, sn_a, gw2;
  host::host_stack* alice;
  host::host_stack* bob;
  int delivered = 0;

  explicit three_hop_fixture(deploy::deployment_config cfg = tracing_config()) : net(cfg) {
    dom1 = net.add_edomain();
    gw1 = net.add_sn(dom1);
    sn_a = net.add_sn(dom1);
    dom2 = net.add_edomain();
    gw2 = net.add_sn(dom2);
    alice = &net.add_host(dom1, sn_a);
    bob = &net.add_host(dom2, gw2);
    net.interconnect();
    deploy::deploy_standard_services(net);
    bob->set_default_handler([this](const ilp::ilp_header&, bytes) { ++delivered; });
  }
};

// Simulation-scale burn windows: a page confirms over 10ms AND 20ms.
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

// One seeded run of the latency-fault scenario. Healthy sends cross in
// ~2.1ms; at 30ms the sn_a<->gw1 link degrades to 20ms one-way, pushing
// end-to-end totals far over the 10ms SLO threshold; the fast burn windows
// fill with out-of-budget completions and the monitor pages.
struct fault_run {
  std::vector<slo::slo_alert> alerts;
  std::string alert_digest;
  std::string blackbox_dump;
  bool blackbox_frozen = false;
  std::uint32_t frozen_by = 0;
  int delivered = 0;
};

fault_run run_latency_fault(std::uint64_t seed) {
  three_hop_fixture f(tracing_config(seed));
  edomain::observability_plane& plane = f.net.core_of(f.dom1).observability();

  timeseries_store::config series;
  series.window = 5ms;
  series.windows = 64;
  plane.enable_health(series, sim_windows());
  slo::slo_target t;
  t.name = "delivery-p99";
  t.service = "delivery";
  t.latency_series = render_metric_key("edomain.path.total_ns", {{"service", "delivery"}});
  t.threshold_ns = 10'000'000;  // 10ms end-to-end budget
  t.error_budget = 0.01;
  plane.add_slo(t);

  fault_run out;
  plane.set_alert_hook([&f, &out](const slo::slo_alert& a) {
    out.alerts.push_back(a);
    if (a.state == slo::slo_state::page) {
      // The pager's first move: freeze the suspect SN's black box so the
      // spans that tripped the burn are preserved as a postmortem.
      f.net.sn(f.sn_a).blackbox()->trigger(kTrigSloPage, a.at_ns);
    }
  });

  // SNs push merged metrics + drained spans into the plane on their own
  // scheduler ticks (the drain also feeds each SN's flight recorder).
  for (const peer_id id : {f.gw1, f.sn_a}) {
    f.net.sn(id).start_observability_push(
        2ms,
        [&plane, id](const metrics_registry& merged, std::span<const trace::path_span> spans) {
          plane.ingest(id, merged, spans);
        },
        /*max_pushes=*/60);
  }

  // Traffic: one send every 2ms for the whole run.
  for (int ms = 0; ms < 90; ms += 2) {
    f.net.net().at(time_point(std::chrono::milliseconds(ms)), [&f] {
      f.alice->send_to(f.bob->addr(), ilp::svc::delivery, to_bytes("slo"));
    });
  }

  // Control tick: fold host-side span ends into the plane (completing the
  // end-to-end latency series) and evaluate the SLOs every 5ms.
  for (int ms = 5; ms <= 115; ms += 5) {
    f.net.net().at(time_point(std::chrono::milliseconds(ms)), [&f, &plane] {
      std::vector<trace::path_span> ends;
      f.alice->drain_path_spans(ends);
      f.bob->drain_path_spans(ends);
      plane.traces().ingest(std::span<const trace::path_span>(ends));
      plane.health_tick(f.net.net().now());
    });
  }

  // The seeded fault schedule: at 30ms the host-side SN's uplink degrades.
  const std::vector<sim::fault_event> schedule = {
      {.at = 30ms,
       .kind = sim::fault_kind::latency,
       .a = static_cast<sim::node_id>(f.sn_a),
       .b = static_cast<sim::node_id>(f.gw1),
       .value = 20.0},
  };
  f.net.net().schedule_faults(schedule);
  f.net.net().run_until(time_point(120ms));

  out.delivered = f.delivered;
  out.blackbox_frozen = f.net.sn(f.sn_a).blackbox()->frozen();
  out.frozen_by = f.net.sn(f.sn_a).blackbox()->frozen_by();
  out.blackbox_dump = f.net.sn(f.sn_a).dump_blackbox_json();

  std::ostringstream os;
  for (const slo::slo_alert& a : out.alerts) {
    os << a.slo << ':' << static_cast<int>(a.state) << ':' << static_cast<int>(a.prev) << ':'
       << a.at_ns << '\n';
  }
  out.alert_digest = os.str();
  return out;
}

TEST(SloHealth, LatencyFaultTripsFastBurnPageAndFreezesBlackbox) {
  const fault_run r = run_latency_fault(1234);

  // Traffic flowed in both phases.
  EXPECT_GT(r.delivered, 20);

  // The injected latency fault tripped the multi-window page.
  const slo::slo_alert* page = nullptr;
  for (const slo::slo_alert& a : r.alerts) {
    if (a.state == slo::slo_state::page) page = &a;
  }
  ASSERT_NE(page, nullptr);
  EXPECT_EQ(page->slo, "delivery-p99");
  EXPECT_EQ(page->service, "delivery");
  EXPECT_GE(page->burn_fast, 14.4);
  // The page postdates the fault injection at 30ms.
  EXPECT_GE(page->at_ns, 30'000'000u);

  // The page froze the SN's black box into a postmortem that carries the
  // lead-up spans and names its trigger.
  EXPECT_TRUE(r.blackbox_frozen);
  EXPECT_EQ(r.frozen_by, kTrigSloPage);
  EXPECT_NE(r.blackbox_dump.find("\"frozen\":true"), std::string::npos);
  EXPECT_NE(r.blackbox_dump.find("\"trigger\":\"slo_page\""), std::string::npos);
  EXPECT_NE(r.blackbox_dump.find("\"kind\":\"span\""), std::string::npos);

  // Replay: same seed, same schedule => byte-identical alert sequence.
  const fault_run replay = run_latency_fault(1234);
  EXPECT_EQ(replay.alert_digest, r.alert_digest);
  EXPECT_EQ(replay.delivered, r.delivered);
  EXPECT_EQ(replay.blackbox_frozen, r.blackbox_frozen);
}

TEST(SloHealth, PlaneExposesSloStateAndAlertsJson) {
  const fault_run r = run_latency_fault(7);
  ASSERT_FALSE(r.alerts.empty());

  // A fresh fixture just for exposition shape: enable health, page it via
  // the same scenario, then check the merged Prometheus text.
  three_hop_fixture f(tracing_config(7));
  edomain::observability_plane& plane = f.net.core_of(f.dom1).observability();
  timeseries_store::config series;
  series.window = 5ms;
  plane.enable_health(series, sim_windows());
  slo::slo_target t;
  t.name = "delivery-p99";
  t.service = "delivery";
  t.latency_series = render_metric_key("edomain.path.total_ns", {{"service", "delivery"}});
  t.threshold_ns = 10'000'000;
  plane.add_slo(t);
  // No traffic: the SLO sits at ok and still exposes its state gauge.
  plane.health_tick(f.net.net().now());
  const std::string prom = plane.export_prometheus();
  EXPECT_NE(prom.find("slo_state"), std::string::npos);
  const std::string alerts_json = plane.export_alerts_json();
  EXPECT_NE(alerts_json.find("\"slos\""), std::string::npos);
}

// ---- watchdog: stalled worker shard -----------------------------------

using sim::node_id;
using sim::simulation;

struct sim_host {
  node_id node = 0;
  std::unique_ptr<ilp::pipe_manager> mgr;
  int received = 0;
};

std::unique_ptr<sim_host> make_host(simulation& net) {
  auto h = std::make_unique<sim_host>();
  h->node = net.add_node(nullptr);
  h->mgr = std::make_unique<ilp::pipe_manager>(
      h->node,
      [&net, node = h->node](peer_id peer, bytes d) {
        net.send(node, static_cast<node_id>(peer), std::move(d));
      },
      [raw = h.get()](peer_id, const ilp::ilp_header&, bytes) { ++raw->received; });
  net.set_handler(h->node, [raw = h.get()](node_id from, const bytes& data) {
    raw->mgr->on_datagram(from, data);
  });
  return h;
}

std::unique_ptr<core::service_node> make_sn(simulation& net, const core::router* route,
                                            std::size_t workers) {
  const node_id node = net.add_node(nullptr);
  core::sn_config cfg;
  cfg.id = node;
  cfg.edomain = 1;
  cfg.workers = workers;
  auto sn = std::make_unique<core::service_node>(
      cfg, net.sim_clock(),
      [&net, node](peer_id to, bytes d) { net.send(node, static_cast<node_id>(to), std::move(d)); },
      [&net](nanoseconds delay, std::function<void()> fn) { net.after(delay, std::move(fn)); },
      route);
  net.set_handler(node, [raw = sn.get()](node_id from, const bytes& data) {
    raw->on_datagram(from, data);
  });
  return sn;
}

ilp::ilp_header delivery_header(ilp::edge_addr dest, ilp::connection_id conn) {
  ilp::ilp_header h;
  h.service = ilp::svc::delivery;
  h.connection = conn;
  h.flags = ilp::kFlagFromHost;
  h.set_meta_u64(ilp::meta_key::dest_addr, dest);
  return h;
}

TEST(SloHealth, WatchdogFlagsInjectedShardStallAndRecovers) {
  simulation net;
  core::testing::identity_router route;
  auto alice = make_host(net);
  auto bob = make_host(net);
  auto sn = make_sn(net, &route, 2);
  sn->env().deploy(std::make_unique<core::testing::forwarder_module>());

  // Steer deterministically at a connection that lands on shard 0.
  ASSERT_NE(sn->steerer(), nullptr);
  ilp::connection_id conn = 1;
  while (sn->steerer()->shard_of(core::cache_key{alice->node, ilp::svc::delivery, conn}) != 0) {
    ++conn;
  }

  std::string dump;
  core::service_node::health_config hc;
  hc.interval = 1ms;
  hc.watchdog_grace = 2;
  hc.blackbox_sink = [&dump](const std::string& j) { dump = j; };

  // Stall shard 0: its worker spins without advancing its heartbeat or
  // consuming the ring — the live-lock shape the watchdog must catch.
  sn->inject_worker_stall(0, true);
  sn->start_health_plane(hc, /*max_ticks=*/10);
  for (int p = 0; p < 8; ++p) {
    alice->mgr->send(sn->node_id(), delivery_header(bob->node, conn), to_bytes("stall"));
  }
  net.run();  // deliveries push into the stalled ring; 10 health ticks run

  EXPECT_GE(sn->watchdog_stalls(), 1u);
  EXPECT_EQ(
      sn->metrics().get_gauge("sn.shard.stalled", {{"shard", "0"}}).value(), 1);
  EXPECT_GE(sn->metrics().get_counter("sn.watchdog.stall_events", {{"shard", "0"}}).value(), 1u);
  // The stall tripped the black box; the sink got the postmortem.
  ASSERT_NE(sn->blackbox(), nullptr);
  EXPECT_TRUE(sn->blackbox()->frozen());
  EXPECT_EQ(sn->blackbox()->frozen_by(), kTrigWatchdog);
  EXPECT_NE(dump.find("\"trigger\":\"watchdog\""), std::string::npos);
  EXPECT_NE(dump.find("\"kind\":\"watchdog\""), std::string::npos);

  // Recovery: clear the stall and let the shard drain. This SN arms no
  // keepalives and only data datagrams enter shard rings, so once
  // wait_idle returns the ring is empty and consumed == pushed: the first
  // health tick sees no pending work and un-flags the shard.
  sn->inject_worker_stall(0, false);
  ASSERT_TRUE(sn->wait_idle(std::chrono::milliseconds(10000)));
  sn->blackbox()->rearm();
  const std::uint64_t stalls = sn->watchdog_stalls();
  sn->start_health_plane(hc, /*max_ticks=*/1);
  net.run();
  EXPECT_EQ(sn->metrics().get_gauge("sn.shard.stalled", {{"shard", "0"}}).value(), 0);
  EXPECT_EQ(sn->watchdog_stalls(), stalls);
  EXPECT_EQ(bob->received, 8);
}

// ---- churn: restarts and duplicate pushes must not double-count -------

TEST(SloHealth, PlaneRollupsSurviveChurnWithoutDoubleCounting) {
  three_hop_fixture f;
  edomain::observability_plane& plane = f.net.core_of(f.dom1).observability();
  timeseries_store::config series;
  series.window = 5ms;
  plane.enable_health(series, sim_windows());

  constexpr int kSends = 6;
  for (int i = 0; i < kSends; ++i) {
    f.alice->send_to(f.bob->addr(), ilp::svc::delivery, to_bytes("churn"));
  }
  f.net.run();
  ASSERT_EQ(f.delivered, kSends);

  // Drain sn_a once, then push the SAME batch twice — an SN re-draining
  // after a restart or a duplicated push mid-window.
  std::vector<trace::path_span> spans;
  f.net.sn(f.sn_a).drain_path_spans(spans);
  metrics_registry snap;
  f.net.sn(f.sn_a).merge_metrics_into(snap);
  plane.ingest(f.sn_a, snap, spans);
  const auto first = plane.rollup(ilp::svc::delivery, f.sn_a);
  plane.ingest(f.sn_a, snap, spans);
  const auto second = plane.rollup(ilp::svc::delivery, f.sn_a);
  EXPECT_EQ(first.spans, second.spans);
  EXPECT_GE(first.spans, static_cast<std::uint64_t>(kSends));
  EXPECT_GT(plane.traces().duplicates_ignored(), 0u);

  // Host ends complete wave 1's traces (the first sighting of the latency
  // histogram is the window store's baseline tick).
  std::vector<trace::path_span> ends;
  f.alice->drain_path_spans(ends);
  f.bob->drain_path_spans(ends);
  plane.traces().ingest(std::span<const trace::path_span>(ends));
  const time_point t0 = f.net.net().now();
  plane.health_tick(t0);

  // Wave 2 lands inside a later window; replaying wave 1's ends alongside
  // it is idempotent, so the window holds exactly wave 2's samples.
  constexpr int kWave2 = 4;
  for (int i = 0; i < kWave2; ++i) {
    f.alice->send_to(f.bob->addr(), ilp::svc::delivery, to_bytes("wave2"));
  }
  f.net.run();
  ASSERT_EQ(f.delivered, kSends + kWave2);
  std::vector<trace::path_span> wave2;
  f.net.sn(f.sn_a).drain_path_spans(wave2);
  f.alice->drain_path_spans(wave2);
  f.bob->drain_path_spans(wave2);
  plane.traces().ingest(std::span<const trace::path_span>(wave2));
  plane.traces().ingest(std::span<const trace::path_span>(ends));  // churn replay
  plane.health_tick(t0 + 10ms);
  const std::string key =
      render_metric_key("edomain.path.total_ns", {{"service", "delivery"}});
  ASSERT_NE(plane.series(), nullptr);
  EXPECT_EQ(plane.series()->hist_count(key, 10ms), static_cast<std::uint64_t>(kWave2));

  // A node restart wipes its cumulative counters: the window store clamps
  // the collapsed delta to the fresh value instead of going negative.
  metrics_registry before;
  before.get_counter("churn.restart.pkts").add(1000);
  plane.ingest(/*node=*/999, before, {});
  plane.health_tick(t0 + 20ms);
  metrics_registry after;  // restarted: counter collapsed to 3
  after.get_counter("churn.restart.pkts").add(3);
  plane.ingest(/*node=*/999, after, {});
  plane.health_tick(t0 + 25ms);
  EXPECT_GE(plane.series()->counter_resets(), 1u);
  EXPECT_LE(plane.series()->delta("churn.restart.pkts", 5ms), 3u);
}

}  // namespace
}  // namespace interedge
