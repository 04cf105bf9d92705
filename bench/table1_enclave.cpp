// Reproduces Table 1 (Appendix C): no-service vs null-service datapath
// throughput and latency, with and without enclaves.
//
// Paper setup: "the packet arrives on an ingress pipe to the pipe-terminus,
// then is sent to a service module (via IPC) which immediately returns the
// packet to the pipe-terminus, which then sends it to an egress pipe. The
// no-service case is where the packet is merely received by the
// pipe-terminus and then forwarded out the egress pipe." Two cores for
// null-service (one terminus, one service), 64 outstanding packets.
//
// This harness drives the real library datapath: PSP-sealed ILP pipes,
// the decision cache/pipe-terminus, the socketpair IPC channel to a real
// service thread running the null service in the execution environment,
// and the enclave cost model (SEV-style bounce-buffer copies at the VM
// I/O boundary, plus enclave_runtime's module-boundary copies) standing
// in for AMD SEV.
//
//   ./bench/table1_enclave [--duration_ms=400] [--payload=1000] [--outstanding=64]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <map>
#include <vector>

#include "common/clock.h"
#include "common/flags.h"
#include "common/metrics.h"
#include "core/channel.h"
#include "core/decision_cache.h"
#include "core/exec_env.h"
#include "core/pipe_terminus.h"
#include "core/service_node.h"
#include "enclave/enclave.h"
#include "ilp/pipe.h"
#include "services/null_service.h"

using namespace interedge;
using steady = std::chrono::steady_clock;

namespace {

constexpr core::peer_id kHost = 1;
constexpr core::peer_id kEgressPeer = 2;

// SEV-style whole-VM I/O cost applied at the pipe boundary: a bounce-buffer
// copy plus a calibrated per-crossing spin. Used for the "Enclave? Yes"
// rows; the null-service rows additionally wrap the module in
// enclave_runtime (module-boundary crossings).
struct vm_boundary {
  bool enabled = false;
  bytes bounce;
  std::uint64_t checksum = 0;
  void cross(const_byte_span data) {
    if (!enabled) return;
    // Bounce-buffer copy: data crossing the SEV boundary moves through
    // shared unencrypted pages (swiotlb); the memory-controller
    // re-encryption runs at memcpy-like speed, so one extra copy per
    // crossing is the faithful per-byte model. (SEV's compute overhead is
    // "little" — Appendix C — and the paper indeed measured only ~1%
    // throughput cost on this row.)
    bounce.resize(data.size());
    std::memcpy(bounce.data(), data.data(), data.size());
    checksum ^= bounce[bounce.size() / 2];
    benchmark_do_not_optimize(checksum);
  }
  static void benchmark_do_not_optimize(std::uint64_t& v) {
    asm volatile("" : "+r"(v));
  }
};

struct bench_result {
  double pps = 0;
  double mean_us = 0;
  double p50_us = 0;
};

// Minimal node_services for running the execution environment standalone.
class bench_node final : public core::node_services {
 public:
  core::peer_id node_id() const override { return 100; }
  std::uint16_t edomain() const override { return 1; }
  const interedge::clock& node_clock() const override { return real_clock::instance(); }
  void send(core::peer_id, const ilp::ilp_header&, bytes) override {}
  void schedule(nanoseconds, std::function<void()>) override {}
  std::optional<core::peer_id> next_hop(core::edge_addr dest) const override { return dest; }
  core::decision_cache& cache() override { return cache_; }
  metrics_registry& metrics() override { return metrics_; }

 private:
  core::decision_cache cache_{64};
  metrics_registry metrics_;
};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(steady::now().time_since_epoch())
          .count());
}

// Thread CPU time: immune to scheduler noise from other processes — used
// to rate the single-threaded no-service datapath.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// Builds the sealed ingress wire image for one packet whose payload begins
// with an 8-byte injection timestamp (rewritten per send).
struct pipe_pair {
  ilp::pipe host_side;   // seals ingress traffic (the load generator)
  ilp::pipe sn_ingress;  // SN's end of the host pipe
  ilp::pipe sn_egress;   // SN's end of the egress pipe
  ilp::pipe peer_side;   // far end of the egress pipe

  pipe_pair()
      : host_side(to_bytes("ingress-pipe-secret-32-bytes!!!!"), 10, 20, true),
        sn_ingress(to_bytes("ingress-pipe-secret-32-bytes!!!!"), 20, 10, false),
        sn_egress(to_bytes("egress--pipe-secret-32-bytes!!!!"), 30, 40, true),
        peer_side(to_bytes("egress--pipe-secret-32-bytes!!!!"), 40, 30, false) {}
};

ilp::ilp_header bench_header() {
  ilp::ilp_header h;
  h.service = ilp::svc::null_service;
  h.connection = 7;
  h.set_meta_u64(ilp::meta_key::dest_addr, kEgressPeer);
  return h;
}

// ---- no-service: pipe-terminus fast path only, one core ----------------
bench_result run_no_service(bool enclave, std::chrono::milliseconds duration,
                            std::size_t payload_size) {
  pipe_pair pipes;
  vm_boundary boundary{enclave, {}};
  core::decision_cache cache(1024);
  cache.insert(core::cache_key{kHost, ilp::svc::null_service, 7},
               core::decision::forward_to(kEgressPeer));

  histogram latency;
  std::uint64_t processed = 0;

  bytes payload(payload_size, 0x5a);
  const ilp::ilp_header header = bench_header();

  const double cpu0 = thread_cpu_seconds();
  const auto deadline = steady::now() + duration;
  while (steady::now() < deadline) {
    // Load generator: stamp + seal (not charged to the SN's latency).
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < 8; ++i) payload[i] = static_cast<std::uint8_t>(t0 >> (8 * i));
    const bytes wire = pipes.host_side.seal(header, payload);

    // ---- SN datapath under test ----
    boundary.cross(wire);  // VM ingress I/O
    auto opened = pipes.sn_ingress.open(const_byte_span(wire).subspan(1));
    const auto d = cache.lookup(
        core::cache_key{kHost, opened->first.service, opened->first.connection});
    bytes egress_wire = pipes.sn_egress.seal(opened->first, opened->second);
    boundary.cross(egress_wire);  // VM egress I/O
    (void)d;
    // ---- end datapath ----

    latency.record(now_ns() - t0);
    ++processed;
  }
  // The loop is single-threaded: rate it on thread CPU time so preemption
  // by other processes does not masquerade as datapath cost.
  const double seconds = thread_cpu_seconds() - cpu0;
  return {static_cast<double>(processed) / seconds, latency.mean() / 1000.0,
          static_cast<double>(latency.quantile(0.5)) / 1000.0};
}

// ---- null-service: terminus + IPC + service thread, two cores ----------
bench_result run_null_service(bool enclave, std::chrono::milliseconds duration,
                              std::size_t payload_size, std::size_t outstanding) {
  pipe_pair pipes;
  vm_boundary boundary{enclave, {}};
  core::decision_cache cache(1024);  // never hit: every packet consults the service

  bench_node node;
  core::exec_env env(node);
  if (enclave) {
    enclave::enclave_config ec;
    ec.transition_cost = nanoseconds(0);  // copies model the SEV I/O cost
    ec.sealing_secret = to_bytes("bench-secret");
    env.deploy(std::make_unique<enclave::enclave_runtime>(
        std::make_unique<services::null_service>(kEgressPeer), ec));
  } else {
    env.deploy(std::make_unique<services::null_service>(kEgressPeer));
  }

  // The service thread lives inside the IPC channel, which serializes the
  // request and decodes it into the service side's own packet.
  core::ipc_channel channel([&env](core::slowpath_request req) {
    return core::to_response(req.token, env.dispatch(*req.pkt));
  });

  histogram latency;
  std::uint64_t completed = 0;

  core::pipe_terminus terminus(
      cache, channel,
      [&](core::peer_id, const ilp::ilp_header& h, const_byte_span payload) {
        bytes egress_wire = pipes.sn_egress.seal(h, payload);
        boundary.cross(egress_wire);  // VM egress I/O
        std::uint64_t t0 = 0;
        for (int i = 0; i < 8; ++i) t0 |= static_cast<std::uint64_t>(payload[i]) << (8 * i);
        latency.record(now_ns() - t0);
        ++completed;
      });

  bytes payload(payload_size, 0x5a);
  const ilp::ilp_header header = bench_header();

  const auto deadline = steady::now() + duration;
  while (steady::now() < deadline) {
    while (terminus.in_flight() >= outstanding) terminus.pump();
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < 8; ++i) payload[i] = static_cast<std::uint8_t>(t0 >> (8 * i));
    const bytes wire = pipes.host_side.seal(header, payload);

    boundary.cross(wire);  // VM ingress I/O
    auto opened = pipes.sn_ingress.open(const_byte_span(wire).subspan(1));
    core::packet_view one{kHost, std::move(opened->first), opened->second};
    terminus.handle_batch(std::span(&one, 1));
  }
  while (terminus.busy()) terminus.pump();

  const double seconds =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(duration).count()) /
      1e9;
  return {static_cast<double>(completed) / seconds, latency.mean() / 1000.0,
          static_cast<double>(latency.quantile(0.5)) / 1000.0};
}

}  // namespace

int main(int argc, char** argv) {
  const flag_set flags =
      flag_set::parse_or_exit(argc, argv, {"duration_ms", "payload", "outstanding"});
  const auto duration = std::chrono::milliseconds(flags.get_int("duration_ms", 400));
  const std::size_t payload = static_cast<std::size_t>(flags.get_int("payload", 1000));
  const std::size_t outstanding = static_cast<std::size_t>(flags.get_int("outstanding", 64));

  std::printf("== Table 1: no-service / null-service with and without enclaves ==\n");
  std::printf("(duration %lld ms per cell, %zu-byte payloads, %zu outstanding)\n\n",
              static_cast<long long>(duration.count()), payload, outstanding);
  std::printf("%-14s %-9s %18s %14s %14s\n", "Microbenchmark", "Enclave?", "Throughput (PPS)",
              "Mean lat (us)", "p50 lat (us)");

  struct row {
    const char* name;
    bool null_service;
    bool enclave;
  };
  const row rows[] = {
      {"No-service", false, false},
      {"No-service", false, true},
      {"Null-service", true, false},
      {"Null-service", true, true},
  };

  // Runs for each (microbenchmark, enclave) cell are interleaved so CPU
  // frequency drift hits base and enclave variants equally; the reported
  // value is the per-cell median of 5 runs. Latency is measured unloaded
  // (outstanding = 1), matching the paper's "unloaded median latency".
  constexpr int kReps = 5;
  std::map<std::pair<bool, bool>, std::vector<bench_result>> cells;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const row& r : rows) {
      cells[{r.null_service, r.enclave}].push_back(
          r.null_service ? run_null_service(r.enclave, duration, payload, outstanding)
                         : run_no_service(r.enclave, duration, payload));
    }
  }

  double base_pps[2] = {0, 0};
  for (const row& r : rows) {
    auto& runs = cells[{r.null_service, r.enclave}];
    std::sort(runs.begin(), runs.end(),
              [](const bench_result& a, const bench_result& b) { return a.pps < b.pps; });
    bench_result result = runs[kReps / 2];
    if (r.null_service) {
      const bench_result unloaded =
          run_null_service(r.enclave, duration / 2, payload, /*outstanding=*/1);
      result.mean_us = unloaded.mean_us;
      result.p50_us = unloaded.p50_us;
    }
    std::printf("%-14s %-9s %18.1f %14.2f %14.2f", r.name, r.enclave ? "Yes" : "No",
                result.pps, result.mean_us, result.p50_us);
    if (!r.enclave) {
      base_pps[r.null_service] = result.pps;
      std::printf("\n");
    } else {
      std::printf("   (%.1f%% tput cost)\n",
                  100.0 * (1.0 - result.pps / base_pps[r.null_service]));
    }
  }

  std::printf(
      "\nPaper (AMD EPYC 7B12): 377420/372883 PPS and 12.4/13.1 us (no-service),\n"
      "120018/110627 PPS and 33.0/35.5 us (null-service). Expected shape: the\n"
      "IPC round trip costs ~3x in throughput; enclaves cost <~10%% on each.\n");
  return 0;
}
