// Live-network demo: the same InterEdge components the other examples run
// on the simulator, here running over real UDP sockets on localhost —
// two hosts, one service node, ILP pipes with PSP-sealed headers on the
// actual wire.
//
//   ./examples/udp_live [--messages=5] [--pin=-1] [--dump-blackbox]
//                       [--profile=0]
//
// --profile=N arms the continuous profiling plane (ISSUE 10) on the SN
// (997Hz on-CPU sampling of the event-loop thread), drives traffic for N
// extra seconds to give the sampler something to chew on, and prints the
// capture on exit: FlameGraph-collapsed folded stacks (pipe into
// flamegraph.pl or load into speedscope) plus the top-10 hot functions.
//
// The SN's socket drains through the zero-copy slab path
// (recv_batch_views -> on_datagram_views): datagrams land in pool slabs,
// ILP headers are decrypted in place, and the terminus consumes views —
// no per-packet payload copy. Forwarded packets leave as a two-iovec
// sendmsg straight from the slab they arrived in. --pin=N pins the
// event-loop thread to CPU N (e.g. --pin=0).
//
// The SLO health plane (ISSUE 7) runs on the SN for the duration of the
// demo: sliding-window rollups over the merged registry, a burn-rate SLO
// on the ingress stage latency, the shard watchdog, and the black-box
// flight recorder. --dump-blackbox freezes the box at exit (manual
// trigger) and prints the postmortem JSON.
#include <cstdio>

#include "common/cpu_topology.h"
#include "common/flags.h"
#include "core/service_node.h"
#include "host/host_stack.h"
#include "net/udp_transport.h"
#include "services/delivery.h"
#include "services/pubsub.h"
#include "services/clients/pubsub_client.h"

using namespace interedge;
using namespace std::chrono_literals;

namespace {

// All destinations resolve through the directory-lite below.
class port_router final : public core::router {
 public:
  std::optional<core::peer_id> next_hop(core::edge_addr dest) const override { return dest; }
};

}  // namespace

int main(int argc, char** argv) {
  const flag_set flags(argc, argv);
  const int n_messages = static_cast<int>(flags.get_int("messages", 5));

  std::printf("== InterEdge over real UDP sockets ==\n\n");

  const int pin_cpu = static_cast<int>(flags.get_int("pin", -1));
  if (pin_cpu >= 0) sys::pin_thread_to_cpu(pin_cpu);
  net::udp_endpoint ep_alice, ep_bob, ep_sn;
  net::event_loop loop;
  const net::peer_id id_alice = ep_alice.port();
  const net::peer_id id_sn = ep_sn.port();
  const net::peer_id id_bob = ep_bob.port();
  std::printf("alice = 127.0.0.1:%u   SN = 127.0.0.1:%u   bob = 127.0.0.1:%u\n\n",
              ep_alice.port(), ep_sn.port(), ep_bob.port());

  ep_alice.add_peer(id_sn, "127.0.0.1", ep_sn.port());
  ep_bob.add_peer(id_sn, "127.0.0.1", ep_sn.port());
  ep_sn.add_peer(id_alice, "127.0.0.1", ep_alice.port());
  ep_sn.add_peer(id_bob, "127.0.0.1", ep_bob.port());

  port_router route;
  real_clock clk;
  const int profile_secs = static_cast<int>(flags.get_int("profile", 0));
  // trace_sample_shift = 0: sample every packet, so a handful of demo
  // datagrams still populate the per-stage histograms and the trace ring.
  // --profile=N arms the sampling profiler on the event-loop thread; 997Hz
  // (prime, so it never phase-locks with a periodic workload) gives ~1k
  // samples per profiled second.
  core::service_node sn(
      core::sn_config{.id = id_sn,
                      .edomain = 1,
                      .trace_sample_shift = 0,
                      .profiler_hz = profile_secs > 0 ? 997u : 0u},
      clk, [&](net::peer_id to, bytes d) { ep_sn.send(to, d); }, loop.scheduler(), &route);
  // Socket counters (net.udp.*) land in the SN registry and show up in the
  // Prometheus dump below.
  ep_sn.enable_telemetry(sn.metrics());
  sn.env().deploy(std::make_unique<services::delivery_service>());

  lookup::lookup_service directory;
  edomain::domain_core core(1, directory);
  core.add_sn(id_sn);
  sn.env().deploy(std::make_unique<services::pubsub_service>(core, id_sn));

  // Path tracing over the real wire (ISSUE 5): alice originates a trace
  // context on every send (sample shift 0), the SN emits hop spans, bob
  // closes the trace with a deliver span.
  host::host_config cfg_a{.addr = id_alice, .first_hop_sn = id_sn, .fallback_sns = {},
                          .path_span_capacity = 256, .trace_sample_shift = 0};
  host::host_config cfg_b{.addr = id_bob, .first_hop_sn = id_sn, .fallback_sns = {},
                          .path_span_capacity = 256, .trace_sample_shift = 0};
  host::host_stack alice(cfg_a, clk, [&](net::peer_id to, bytes d) { ep_alice.send(to, d); },
                         loop.scheduler(), nullptr);
  host::host_stack bob(cfg_b, clk, [&](net::peer_id to, bytes d) { ep_bob.send(to, d); },
                       loop.scheduler(), nullptr);

  loop.attach(ep_alice, [&](net::peer_id f, const_byte_span d) { alice.on_datagram(f, d); });
  loop.attach(ep_bob, [&](net::peer_id f, const_byte_span d) { bob.on_datagram(f, d); });
  // The SN drains its socket a burst at a time straight into pool slabs
  // and pumps the zero-copy ingress datapath; the hosts stay on the
  // per-packet path.
  loop.attach_views(ep_sn, [&](std::span<std::pair<net::peer_id, buf::pkt_view>> ds) {
    sn.on_datagram_views(ds);
  });
  // Zero-copy egress: forwarded packets seal their header into the pipe
  // manager's scratch and go out as a (head, payload) gather pair — one
  // two-iovec sendmsg whose payload iovec points into the rx slab.
  sn.pipes().set_send_gather(
      [&](net::peer_id to, const_byte_span head, const_byte_span payload) {
        ep_sn.send_gather(to, head, payload);
      });

  int delivered = 0;
  bob.set_default_handler([&](const ilp::ilp_header& h, bytes payload) {
    std::printf("  bob <- [conn %llx] \"%s\"\n",
                static_cast<unsigned long long>(h.connection), to_string(payload).c_str());
    ++delivered;
  });

  // SLO health plane (ISSUE 7): a 20ms health tick rolls the merged
  // registry into the sliding-window store, scans the shard watchdog and
  // evaluates a burn-rate SLO on the ingress stage latency. Ticks are
  // bounded so the event loop's timer queue drains and run_until_quiet
  // can return. Demo-scale windows: a real deployment keeps the SRE-book
  // defaults (1m/5m fast, 30m/6h slow).
  core::service_node::health_config health;
  health.interval = 20ms;
  health.series.window = 100ms;
  health.windows.fast_short = 200ms;
  health.windows.fast_long = 400ms;
  health.windows.slow_short = 1000ms;
  health.windows.slow_long = 2000ms;
  slo::slo_target ingress_slo;
  ingress_slo.name = "ingress-p99";
  ingress_slo.service = "delivery";
  ingress_slo.latency_series = "sn.stage.ingress";
  ingress_slo.threshold_ns = 50'000;  // 50us budget per packet, 1% headroom
  health.targets.push_back(ingress_slo);
  health.alert_sink = [](const slo::slo_alert& a) {
    std::printf("  !! SLO %s (%s): %s -> %s  burn_fast=%.1f\n", a.slo.c_str(),
                a.service.c_str(), slo::slo_state_name(a.prev), slo::slo_state_name(a.state),
                a.burn_fast);
  };
  sn.start_health_plane(health, /*max_ticks=*/50);

  services::pubsub_client sub(bob), pub(alice);
  int headlines = 0;
  sub.subscribe("headlines", [&](const std::string&, bytes p) {
    std::printf("  bob <- pub/sub headlines: \"%s\"\n", to_string(p).c_str());
    ++headlines;
  });
  loop.run_until_quiet(30ms, 2000ms);

  std::printf("alice sends %d datagrams through the SN (delivery service):\n", n_messages);
  auto conn = alice.open(id_bob, ilp::svc::delivery);
  for (int i = 0; i < n_messages; ++i) {
    conn.send(to_bytes("udp payload " + std::to_string(i)));
  }
  loop.run_until_quiet(30ms, 3000ms);

  std::printf("\nalice publishes to \"headlines\" (pub/sub service):\n");
  pub.publish("headlines", to_bytes("InterEdge runs on real sockets"));
  loop.run_until_quiet(30ms, 2000ms);

  // --profile=N: keep the datapath hot for N seconds so the sampler has
  // real ingress work to attribute, then report below. Traffic loops
  // through the same zero-copy delivery path as the demo sends above.
  if (profile_secs > 0 && sn.profiler() != nullptr) {
    std::printf("\nprofiling the SN event loop for %ds at 997Hz...\n", profile_secs);
    // Quiet counting handler for the capture traffic — the demo handler
    // would printf per packet.
    std::uint64_t profiled_rx = 0;
    bob.set_default_handler([&](const ilp::ilp_header&, bytes) { ++profiled_rx; });
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(profile_secs);
    std::uint64_t sent = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      for (int i = 0; i < 64; ++i) {
        conn.send(to_bytes("profile payload " + std::to_string(sent++)));
      }
      loop.run_until_quiet(1ms, 50ms);
    }
    std::printf("profiled %llu datagrams (%llu delivered)\n",
                static_cast<unsigned long long>(sent),
                static_cast<unsigned long long>(profiled_rx));
  }

  const auto& stats = sn.datapath_stats();
  std::printf("\nSN datapath: received=%llu fast-path=%llu slow-path=%llu forwarded=%llu\n",
              static_cast<unsigned long long>(stats.received),
              static_cast<unsigned long long>(stats.fast_path),
              static_cast<unsigned long long>(stats.slow_path),
              static_cast<unsigned long long>(stats.forwarded));
  std::printf("UDP: alice sent %llu datagrams, SN received %llu\n",
              static_cast<unsigned long long>(ep_alice.sent()),
              static_cast<unsigned long long>(ep_sn.received()));

  // The exposition surface (ISSUE 2): per-stage latency quantiles from the
  // packet tracer, then the full registry in Prometheus text format —
  // per-service rx counters (sn_rx_pkts{service=...}) included.
  std::printf("\nper-stage latency (ns), every packet sampled:\n");
  for (trace::stage s : {trace::stage::parse, trace::stage::decrypt, trace::stage::cache,
                         trace::stage::emit}) {
    const histogram& h = sn.packet_tracer().stage_hist(s);
    std::printf("  %-8s count=%-5llu p50=%-7llu p99=%llu\n", trace::stage_name(s),
                static_cast<unsigned long long>(h.count()),
                static_cast<unsigned long long>(h.quantile(0.5)),
                static_cast<unsigned long long>(h.quantile(0.99)));
  }

  std::printf("\nrecent sampled packet traces:\n%s", sn.packet_tracer().dump(8).c_str());

  // Cross-hop path traces (ISSUE 5): fold the host-side origin/deliver
  // spans into the SN's collector, then dump reassembled alice->SN->bob
  // paths — per-hop stage breakdown included — as JSON.
  {
    std::vector<trace::path_span> host_spans;
    alice.drain_path_spans(host_spans);
    bob.drain_path_spans(host_spans);
    sn.traces().ingest(std::span<const trace::path_span>(host_spans));
    std::printf("\npath traces (host->SN->host), JSON dump:\n%s\n",
                sn.export_trace_json(4).c_str());
  }

  std::printf("\nPrometheus exposition:\n%s", sn.metrics().export_prometheus().c_str());

  std::printf("\nstats snapshot (rates vs. previous snapshot):\n%s",
              sn.stats_snapshot().c_str());

  // Health plane summary (ISSUE 7): window coverage of the rollup store
  // and the per-target SLO state after the demo's traffic.
  if (const timeseries_store* ts = sn.health_series()) {
    std::printf("\nhealth plane rollups:\n%s\n", ts->export_json().c_str());
  }
  if (const slo::slo_monitor* slos = sn.health_slos()) {
    std::printf("SLO state:\n%s\n", slos->export_json().c_str());
  }

  // Profiling report (--profile=N): folded stacks in FlameGraph-collapsed
  // format — feed to flamegraph.pl or speedscope — then the top-10 hot
  // functions by self samples. The hot-stack table also lands in any
  // --dump-blackbox postmortem below via the health plane's snapshots.
  if (profile_secs > 0 && sn.profiler() != nullptr) {
    // Stop sampling before the report renders: symbolization is heavy
    // enough that an armed sampler would profile its own exporter.
    sn.profiler()->disarm();
    sn.profile_refresh();
    std::printf("\nfolded stacks (flamegraph.pl collapsed format):\n%s",
                sn.export_profile_folded().c_str());
    std::printf("\ntop functions by self samples (backend=%s, %llu samples, %llu dropped):\n",
                sn.profiler()->active_backend() == prof::backend::perf_event ? "perf_event"
                                                                            : "timer_signal",
                static_cast<unsigned long long>(sn.profiler()->total_samples()),
                static_cast<unsigned long long>(sn.profiler()->total_dropped()));
    for (const auto& hf : sn.profiler()->top_functions(10)) {
      std::printf("  %6llu self  %6llu total  %s\n", static_cast<unsigned long long>(hf.self),
                  static_cast<unsigned long long>(hf.total), hf.name.c_str());
    }
  }

  // Black-box postmortem: freeze the ring by hand (the kTrigManual path —
  // the same freeze a peer-down, shed watermark or SLO page would fire)
  // and dump what the node was doing right before.
  if (flags.get_bool("dump-blackbox", false)) {
    if (flight_recorder* box = sn.blackbox()) {
      box->trigger(kTrigManual,
                   static_cast<std::uint64_t>(clk.now().time_since_epoch().count()));
      std::printf("\nblack-box flight recorder dump (--dump-blackbox):\n%s\n",
                  sn.dump_blackbox_json().c_str());
    }
  }

  return (delivered == n_messages && headlines == 1) ? 0 : 1;
}
