// sn_bench: runs one workload of the SN benchmark in this process and
// prints its metrics. Normally invoked through perfbench/run.py.
//
//   sn_bench --workload <relay_udp|flow_churn|pubsub_fanout|relay_sharded>
//            --seed N --seconds S --trace 0|1 [--spans FILE] [--flip-byte]
//
// --trace 0 prints the end-to-end metrics of one timed phase; --trace 1
// runs the same workload untraced for S/2 seconds and traced for S/2
// seconds and prints the per-layer ledger metrics (and writes every span
// of the traced phase's preallocated buffer to --spans as JSON). The last
// line of stdout is the result object; a failed correctness gate exits 1
// without printing it.
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.h"

using namespace perfbench;

namespace {

constexpr int kSetupBuilds = 51;
constexpr double kWarmupS = 0.5;
constexpr std::size_t kSpanCapacity = 1 << 16;
constexpr std::size_t kProbePackets = 4096;

struct metric {
  std::string name;
  double value;
  const char* unit;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + json_number(ms[i].value) + ", \"unit\": \"" +
           ms[i].unit + "\"}";
  }
  return out + "}";
}

void usage() {
  std::fprintf(stderr,
               "usage: sn_bench --workload relay_udp|flow_churn|pubsub_fanout|relay_sharded "
               "--seed N --seconds S --trace 0|1 [--spans FILE] [--flip-byte]\n");
}

bool parse(int argc, char** argv, options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--flip-byte") {
      o.flip_byte = true;
    } else if (a == "--workload" && (v = value())) {
      o.workload = v;
    } else if (a == "--seed" && (v = value())) {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds" && (v = value())) {
      o.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace" && (v = value())) {
      o.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--spans" && (v = value())) {
      o.spans_path = v;
    } else {
      return false;
    }
  }
  return !o.workload.empty() && o.seconds > 0;
}

std::unique_ptr<workload> make(const options& o) {
  if (o.workload == "relay_udp") return make_relay_udp(o);
  if (o.workload == "flow_churn") return make_flow_churn(o);
  if (o.workload == "pubsub_fanout") return make_pubsub_fanout(o);
  if (o.workload == "relay_sharded") return make_relay_sharded(o);
  return nullptr;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto c = line.find(':');
      if (c != std::string::npos) return line.substr(c + 2);
    }
  }
  return "unknown";
}

void print_header(const options& o, const workload& w) {
  utsname u{};
  uname(&u);
  std::printf("# sn_bench workload=%s seed=%llu seconds=%g trace=%d\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);
  std::printf("# host nproc=%ld kernel=%s %s compiler=%s build_type=%s cpu=\"%s\"\n",
              sysconf(_SC_NPROCESSORS_ONLN), u.sysname, u.release, PERFBENCH_CXX_ID,
              PERFBENCH_BUILD_TYPE, cpu_model().c_str());
  std::printf("# config %s\n", w.describe().c_str());
}

// Conservation: every expected delivery arrived intact or was counted as
// dropped by the program; any other outcome is a failure.
bool gate(const workload& w, const snapshot& s) {
  std::string why = w.failure();
  if (why.empty() && s.delivered + s.counted_drops() != s.expected) {
    why = "conservation broken: expected " + std::to_string(s.expected) + " deliveries, " +
          std::to_string(s.delivered) + " delivered + " + std::to_string(s.counted_drops()) +
          " counted drops (" + std::to_string(s.lost) + " given up on)";
  }
  if (!why.empty()) {
    std::printf("# correctness gate: FAIL: %s\n", why.c_str());
    return false;
  }
  std::printf("# correctness gate: PASS expected=%llu delivered=%llu counted_drops=%llu "
              "checked=%llu loss_ratio=%.6g\n",
              static_cast<unsigned long long>(s.expected),
              static_cast<unsigned long long>(s.delivered),
              static_cast<unsigned long long>(s.counted_drops()),
              static_cast<unsigned long long>(s.checked),
              ratio(static_cast<double>(s.expected - s.delivered), static_cast<double>(s.expected)));
  return true;
}

void print_result(const snapshot& s, const std::vector<metric>& ms) {
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              static_cast<unsigned long long>(s.expected),
              static_cast<unsigned long long>(s.expected - s.delivered), metrics_json(ms).c_str());
}

std::vector<metric> ledger_metrics(const tracer& tr, const snapshot& a, const snapshot& b,
                                   const std::vector<double>& cpu0,
                                   const std::vector<double>& cpu1, double wall_ns,
                                   double covered_ns, double untraced_pps, double traced_pps) {
  const double pkts = static_cast<double>(b.delivered - a.delivered);
  auto d = [](std::uint64_t x, std::uint64_t y) { return static_cast<double>(y - x); };
  auto per_pkt = [&](std::uint64_t ns) { return ratio(static_cast<double>(ns), pkts); };
  auto per_call = [&](layer l) {
    return ratio(static_cast<double>(tr.total_ns(l)), static_cast<double>(tr.calls(l)));
  };
  const double shard_busy =
      !cpu0.empty() && !cpu1.empty() ? ratio((cpu1[0] - cpu0[0]) * 1e9, wall_ns) : 0.0;
  const double rx_calls = d(a.net_rx_calls, b.net_rx_calls);
  const double hits = d(a.cache_hits, b.cache_hits);
  const double looked = hits + d(a.cache_misses, b.cache_misses);
  const double sn_rx = d(a.sn_received, b.sn_received);
  return {
      {"net.rx.ns_per_pkt", per_pkt(tr.total_ns(L_NET_RX)), "ns"},
      {"net.rx.pkts_per_call", ratio(d(a.net_rx_pkts, b.net_rx_pkts), rx_calls), "count"},
      {"net.rx.empty_share", ratio(d(a.net_rx_empty, b.net_rx_empty), rx_calls), "ratio"},
      {"net.tx.ns_per_pkt", per_pkt(tr.total_ns(L_NET_TX)), "ns"},
      {"net.tx.send_again", d(a.net_send_again, b.net_send_again), "count"},
      {"net.drops", d(a.net_drops, b.net_drops) + d(a.kernel_drops, b.kernel_drops), "count"},
      {"host.tx.self_ns_per_pkt", per_pkt(tr.self_ns(L_HOST_TX)), "ns"},
      {"host.rx.self_ns_per_pkt", per_pkt(tr.self_ns(L_HOST_RX)), "ns"},
      {"host.handshake_retries", static_cast<double>(b.handshake_retries), "count"},
      {"ilp.seal.ns_per_pkt", per_call(L_ILP_SEAL), "ns"},
      {"ilp.open.ns_per_pkt",
       ratio(static_cast<double>(tr.total_ns(L_ILP_OPEN)), static_cast<double>(kProbePackets)),
       "ns"},
      {"ilp.seals_per_ingress", ratio(pkts, d(a.fed, b.fed)), "ratio"},
      {"ilp.rejected", d(a.ilp_rejected, b.ilp_rejected), "count"},
      {"core.sn.ns_per_pkt", per_pkt(tr.total_ns(L_CORE) + tr.total_ns(L_CORE_WAIT)), "ns"},
      {"core.sn.self_ns_per_pkt", per_pkt(tr.self_ns(L_CORE)), "ns"},
      {"core.sn.wait_ns_per_pkt", per_pkt(tr.self_ns(L_CORE_WAIT)), "ns"},
      {"core.cache.hit_ratio", ratio(hits, looked), "ratio"},
      {"core.cache.evictions_per_pkt", ratio(d(a.cache_evictions, b.cache_evictions), sn_rx),
       "ratio"},
      {"core.slow_path_share", ratio(d(a.sn_slow, b.sn_slow), sn_rx), "ratio"},
      {"core.drops", d(a.sn_dropped + a.sn_shed, b.sn_dropped + b.sn_shed), "count"},
      {"core.shard0.busy_share", shard_busy, "ratio"},
      {"core.shard.ingress_drops",
       d(a.shard_ingress_drops + a.shard_spill_drops, b.shard_ingress_drops + b.shard_spill_drops),
       "count"},
      {"services.delivery.calls", static_cast<double>(tr.calls(L_SVC_DELIVERY)), "count"},
      {"services.delivery.ns_per_call", per_call(L_SVC_DELIVERY), "ns"},
      {"services.pubsub.ns_per_call", per_call(L_SVC_PUBSUB), "ns"},
      {"services.pubsub.sends_per_call",
       tr.calls(L_SVC_PUBSUB) > 0
           ? ratio(d(a.module_sends, b.module_sends), static_cast<double>(tr.calls(L_SVC_PUBSUB)))
           : 0.0,
       "count"},
      {"pool.exhausted", d(a.pool_exhausted, b.pool_exhausted), "count"},
      {"pool.refills", d(a.pool_refills, b.pool_refills), "count"},
      {"bench.gen.ns_per_pkt", per_pkt(tr.self_ns(L_GEN)), "ns"},
      {"bench.sink.ns_per_pkt", per_pkt(tr.self_ns(L_SINK)), "ns"},
      {"bench.unattributed_share", 1.0 - ratio(covered_ns, wall_ns), "ratio"},
      {"bench.tracing_overhead", 1.0 - ratio(traced_pps, untraced_pps), "ratio"},
  };
}

void write_spans(const std::string& path, const options& o, const tracer& tr,
                 std::uint64_t t0, double wall_ns, std::uint64_t covered_ns, double pkts,
                 double untraced_pps, double traced_pps, const std::vector<metric>& ms) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out << "{\"workload\": \"" << o.workload << "\", \"seed\": " << o.seed
      << ", \"wall_ns\": " << json_number(wall_ns) << ", \"packets\": " << json_number(pkts)
      << ", \"covered_ns\": " << covered_ns
      << ", \"untraced_pps\": " << json_number(untraced_pps)
      << ", \"traced_pps\": " << json_number(traced_pps) << ",\n \"layers\": {";
  for (int l = 0; l < kLayerCount; ++l) {
    const auto ly = static_cast<layer>(l);
    out << (l > 0 ? ", " : "") << "\"" << layer_name(ly) << "\": {\"calls\": " << tr.calls(ly)
        << ", \"total_ns\": " << tr.total_ns(ly) << ", \"self_ns\": " << tr.self_ns(ly) << "}";
  }
  out << "},\n \"metrics\": " << metrics_json(ms) << ",\n \"spans_dropped\": " << tr.dropped()
      << ",\n \"span_fields\": [\"layer\", \"id\", \"parent\", \"start_ns\", \"end_ns\"],\n"
      << " \"spans\": [";
  bool first = true;
  for (const span_rec& s : tr.spans()) {
    out << (first ? "\n  " : ",\n  ") << "[\"" << layer_name(static_cast<layer>(s.layer))
        << "\", " << s.id << ", " << s.parent << ", " << (s.start - t0) << ", "
        << (s.end >= s.start ? s.end - t0 : s.start - t0) << "]";
    first = false;
  }
  out << "\n ]}\n";
}

int run(const options& o) {
  std::unique_ptr<workload> w = make(o);
  if (!w) {
    usage();
    return 2;
  }
  std::vector<double> builds;
  for (int k = 0; k < kSetupBuilds; ++k) {
    w->teardown();
    const std::uint64_t t = now_ns();
    w->build();
    builds.push_back(static_cast<double>(now_ns() - t) * 1e-9);
  }
  print_header(o, *w);
  const double setup_s = median(builds);
  std::printf("# setup builds=%d median_s=%.6f min_s=%.6f max_s=%.6f\n", kSetupBuilds, setup_s,
              *std::min_element(builds.begin(), builds.end()),
              *std::max_element(builds.begin(), builds.end()));
  w->generate();
  phase_result warm;
  w->run(kWarmupS, warm);

  if (!o.trace) {
    phase_result ph;
    w->run(o.seconds, ph);
    const snapshot end = w->snap();
    const double pps = ratio(static_cast<double>(ph.delivered), ph.wall_s);
    const double cpu_us = ratio(ph.cpu_s * 1e6, static_cast<double>(ph.delivered));
    std::printf("# phase wall_s=%.3f delivered=%llu cpu_s=%.3f latency_samples=%llu "
                "p99_windows=%zu\n",
                ph.wall_s, static_cast<unsigned long long>(ph.delivered), ph.cpu_s,
                static_cast<unsigned long long>(ph.rec.samples()), ph.rec.windows());
    if (!gate(*w, end)) return 1;
    print_result(end, {
        {"throughput_pps", pps, "pkt/s"},
        {"lat_p50_us", ph.rec.p50() / 1000.0, "us"},
        {"lat_p99_us", ph.rec.windowed_p99() / 1000.0, "us"},
        {"cpu_us_per_pkt", cpu_us, "us"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
        {"delivery_ratio",
         ratio(static_cast<double>(end.delivered), static_cast<double>(end.expected)), "ratio"},
    });
    return 0;
  }

  phase_result untraced;
  w->run(o.seconds / 2, untraced);
  const snapshot a = w->snap();
  const std::vector<double> cpu0 = other_thread_cpu_s();
  tracer tr(kSpanCapacity);
  phase_result traced;
  g_tracer = &tr;
  const std::uint64_t t0 = now_ns();
  w->run(o.seconds / 2, traced);
  const std::uint64_t t2 = now_ns();
  g_tracer = nullptr;
  const std::uint64_t covered_ns = tr.covered_ns();
  const std::vector<double> cpu1 = other_thread_cpu_s();
  const snapshot b = w->snap();
  g_tracer = &tr;
  w->ilp_probe(kProbePackets);
  g_tracer = nullptr;
  if (!gate(*w, b)) return 1;

  const double wall_ns = static_cast<double>(t2 - t0);
  const double untraced_pps = ratio(static_cast<double>(untraced.delivered), untraced.wall_s);
  const double traced_pps = ratio(static_cast<double>(traced.delivered), traced.wall_s);
  const std::vector<metric> ms =
      ledger_metrics(tr, a, b, cpu0, cpu1, wall_ns, static_cast<double>(covered_ns), untraced_pps,
                     traced_pps);
  if (!o.spans_path.empty()) {
    write_spans(o.spans_path, o, tr, t0, wall_ns, covered_ns,
                static_cast<double>(b.delivered - a.delivered), untraced_pps, traced_pps, ms);
    std::printf("# spans %zu kept, %llu beyond the buffer, written to %s\n", tr.spans().size(),
                static_cast<unsigned long long>(tr.dropped()), o.spans_path.c_str());
  }
  print_result(b, ms);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  options o;
  if (!parse(argc, argv, o)) {
    usage();
    return 2;
  }
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "sn_bench: %s\n", e.what());
    return 1;
  }
}
