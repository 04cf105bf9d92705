// Reproduces the Appendix C "Direct peering" benchmark: "A commodity
// (16-core) server could easily maintain 98,000 simultaneous tunnels, each
// doing symmetric key rotation every three minutes. In terms of compute,
// this consumed less than half a core, and in terms of bandwidth it
// consumed roughly 3.4 Mbps."
//
// We build the tunnel fleet with staggered 3-minute rekey deadlines and
// process one full rotation interval, measuring (a) the CPU time spent on
// rekey handshakes as a fraction of a core and (b) the control-plane
// bandwidth of the handshake messages.
//
//   ./bench/peering_scale [--tunnels=98000] [--interval_s=180] [--scale=0.1]
//
// --scale runs a proportional subsample (default 10% of the tunnels over
// 10% of the interval) and extrapolates — full scale takes a few minutes
// of wall time mostly constructing key pairs; pass --scale=1 for the
// complete run.
#include <chrono>
#include <cstdio>

#include "common/flags.h"
#include "tunnel/tunnel.h"

using namespace interedge;
using steady = std::chrono::steady_clock;

int main(int argc, char** argv) {
  const flag_set flags = flag_set::parse_or_exit(argc, argv, {"scale", "tunnels", "interval_s"});
  const double scale = flags.get_double("scale", 0.1);
  const std::size_t full_tunnels = static_cast<std::size_t>(flags.get_int("tunnels", 98000));
  const auto full_interval = std::chrono::seconds(flags.get_int("interval_s", 180));

  const std::size_t tunnels = std::max<std::size_t>(1, static_cast<std::size_t>(
      static_cast<double>(full_tunnels) * scale));
  // Keep the per-tunnel rekey RATE identical to the paper's workload: each
  // tunnel rekeys once per full_interval; we process `scale` of the
  // interval over the subsampled fleet and extrapolate linearly in both
  // dimensions.
  const auto window = std::chrono::duration_cast<std::chrono::nanoseconds>(full_interval);

  std::printf("== Appendix C direct-peering benchmark ==\n");
  std::printf("constructing %zu tunnels (%.0f%% of %zu)...\n", tunnels, scale * 100,
              full_tunnels);

  const auto t_build0 = steady::now();
  tunnel::tunnel_fleet fleet(tunnels, window, /*seed=*/42);
  const auto build_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(steady::now() - t_build0).count();
  std::printf("fleet ready in %.1f s\n\n", build_s);

  // Process one full rotation interval in 1-second ticks of virtual time,
  // accumulating the real CPU time the rekeys consume.
  std::printf("processing one %lld-second rotation interval...\n",
              static_cast<long long>(full_interval.count()));
  double cpu_seconds = 0;
  std::size_t rekeys = 0;
  for (std::int64_t tick = 1; tick <= full_interval.count(); ++tick) {
    const time_point virtual_now{std::chrono::seconds(tick)};
    const auto t0 = steady::now();
    rekeys += fleet.rotate_due(virtual_now);
    cpu_seconds +=
        std::chrono::duration_cast<std::chrono::duration<double>>(steady::now() - t0).count();
  }

  const double interval_s = static_cast<double>(full_interval.count());
  const double core_fraction = cpu_seconds / interval_s;
  const double bytes_total = static_cast<double>(fleet.total_handshake_bytes());
  const double mbps = bytes_total * 8.0 / interval_s / 1e6;

  // Extrapolate the subsample to the full fleet (costs are per-tunnel
  // independent, so scaling is linear).
  const double scale_up = static_cast<double>(full_tunnels) / static_cast<double>(tunnels);

  std::printf("\n-- measured (%zu tunnels) --\n", tunnels);
  std::printf("rekeys completed:        %zu (%.1f/s)\n", rekeys,
              static_cast<double>(rekeys) / interval_s);
  std::printf("rekey CPU time:          %.2f s over a %.0f s interval = %.4f cores\n",
              cpu_seconds, interval_s, core_fraction);
  std::printf("handshake bandwidth:     %.3f Mbps (%.0f bytes/rekey)\n", mbps,
              rekeys ? bytes_total / static_cast<double>(rekeys) : 0.0);

  std::printf("\n-- extrapolated to %zu tunnels --\n", full_tunnels);
  std::printf("CPU:                     %.3f cores   (paper: < 0.5 core)\n",
              core_fraction * scale_up);
  std::printf("control bandwidth:       %.2f Mbps    (paper: ~3.4 Mbps incl. keepalives)\n",
              mbps * scale_up);
  std::printf("verdict:                 %s\n",
              core_fraction * scale_up < 0.5 ? "PASS — full-mesh edomain peering is cheap"
                                             : "FAIL — exceeds half a core");
  return core_fraction * scale_up < 0.5 ? 0 : 1;
}
