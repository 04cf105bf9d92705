// The workload interface the driver (main.cpp) runs, plus the small pieces
// of wiring every workload shares: a timer queue for the program's
// scheduler callbacks, an identity router, the traced-run timing wrapper
// for service modules, and the ILP seal/open probe.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "core/router.h"
#include "core/service_module.h"
#include "measure.h"

namespace perfbench {

using interedge::ilp::peer_id;

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Negative test: flip one byte of one delivered payload before the
  // correctness gate sees it. The run must then fail.
  bool flip_byte = false;
  std::string spans_path;
};

// Counters read from the program and from the benchmark's own accounting,
// at a quiescent point (nothing in flight). Deltas between two snapshots
// give the per-layer counts of a phase.
struct snapshot {
  std::uint64_t fed = 0;        // data datagrams handed to the program
  std::uint64_t expected = 0;   // deliveries those datagrams should produce
  std::uint64_t delivered = 0;  // deliveries that arrived intact
  std::uint64_t lost = 0;       // expected deliveries given up on (timeout)
  std::uint64_t sn_received = 0, sn_slow = 0, sn_dropped = 0, sn_shed = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0;
  std::uint64_t ilp_rejected = 0;
  std::uint64_t shard_ingress_drops = 0, shard_spill_drops = 0;
  std::uint64_t net_rx_calls = 0, net_rx_empty = 0, net_rx_pkts = 0;
  std::uint64_t net_send_again = 0, net_drops = 0, kernel_drops = 0;
  std::uint64_t pool_exhausted = 0, pool_refills = 0;
  std::uint64_t handshake_retries = 0;
  std::uint64_t module_sends = 0;  // sends returned by wrapped modules
  std::uint64_t checked = 0;       // deliveries whose header and payload were verified
  std::uint64_t fanout = 1;        // deliveries per fed datagram

  // Deliveries the program accounted for as dropped.
  std::uint64_t counted_drops() const {
    return (sn_dropped + sn_shed + ilp_rejected + shard_ingress_drops) * fanout +
           shard_spill_drops + net_drops + kernel_drops;
  }
};

// One timed phase of a closed loop.
struct phase_result {
  double wall_s = 0;
  std::uint64_t delivered = 0;
  double cpu_s = 0;
  phase_recorder rec;
};

class workload {
 public:
  virtual ~workload() = default;

  // One line: SN config, sockets and backend, window, packet shape.
  virtual std::string describe() const = 0;
  // Builds a fresh system: endpoints, SN, modules, every pipe handshake
  // and subscription. The caller times it, after teardown().
  virtual void build() = 0;
  // Destroys the system the last build() made, if any.
  virtual void teardown() = 0;
  // Replay traffic for the in-memory workloads (untimed).
  virtual void generate() {}
  // Closed loop for `seconds`, then a drain until nothing is in flight.
  virtual void run(double seconds, phase_result& out) = 0;
  virtual snapshot snap() = 0;
  // Seals and opens `n` packets shaped like this workload's through a
  // pair of benchmark-owned pipe managers (spans ilp.seal / ilp.open).
  virtual void ilp_probe(std::size_t n) = 0;

  // First correctness failure seen, empty while the run is correct.
  const std::string& failure() const { return failure_; }

 protected:
  void fail(const std::string& why) {
    if (failure_.empty()) failure_ = why;
  }

 private:
  std::string failure_;
};

std::unique_ptr<workload> make_relay_udp(const options& o);
std::unique_ptr<workload> make_flow_churn(const options& o);
std::unique_ptr<workload> make_pubsub_fanout(const options& o);
std::unique_ptr<workload> make_relay_sharded(const options& o);

// The program's scheduler_fn, backed by a list the set-up pump runs. The
// timed loops never wait on it.
class timer_queue {
 public:
  std::function<void(interedge::nanoseconds, std::function<void()>)> scheduler() {
    return [this](interedge::nanoseconds d, std::function<void()> fn) {
      q_.push_back({now_ns() + static_cast<std::uint64_t>(d.count()), std::move(fn)});
    };
  }
  void run_due();

 private:
  struct entry {
    std::uint64_t due;
    std::function<void()> fn;
  };
  std::vector<entry> q_;
};

// Every destination is its own next hop (peer ids double as addresses).
class identity_router final : public interedge::core::router {
 public:
  std::optional<peer_id> next_hop(interedge::core::edge_addr dest) const override {
    return dest;
  }
};

// Deployed around a service module in the traced run only: a span per
// on_packet call and a count of the sends it returns.
class timed_module final : public interedge::core::service_module {
 public:
  timed_module(std::unique_ptr<interedge::core::service_module> inner, layer l,
               std::uint64_t* sends)
      : inner_(std::move(inner)), layer_(l), sends_(sends) {}

  interedge::ilp::service_id id() const override { return inner_->id(); }
  std::string_view name() const override { return inner_->name(); }
  void start(interedge::core::service_context& ctx) override { inner_->start(ctx); }
  interedge::core::module_result on_packet(interedge::core::service_context& ctx,
                                           const interedge::core::packet& pkt) override {
    scoped_span s(layer_);
    interedge::core::module_result r = inner_->on_packet(ctx, pkt);
    *sends_ += r.sends.size();
    return r;
  }
  bool content_dependent() const override { return inner_->content_dependent(); }

 private:
  std::unique_ptr<interedge::core::service_module> inner_;
  layer layer_;
  std::uint64_t* sends_;
};

// Wraps `m` in a timed_module when tracing is compiled into this run.
std::unique_ptr<interedge::core::service_module> maybe_timed(
    std::unique_ptr<interedge::core::service_module> m, bool trace, layer l,
    std::uint64_t* sends);

// ilp.seal / ilp.open probe: n packets of the given header shape and
// payload size through a fresh pipe pair.
void run_ilp_probe(const interedge::ilp::ilp_header& shape, std::size_t payload_size,
                   std::uint64_t payload_seed, std::size_t n);

// Counted UDP receive drops of this network namespace (/proc/net/snmp
// InErrors, which includes RcvbufErrors).
std::uint64_t kernel_udp_drops();

// Runs `step` until `done` holds or `limit_ms` passes; throws on timeout.
void pump_until(const std::function<bool()>& done, const std::function<void()>& step,
                int limit_ms, const char* what);

}  // namespace perfbench
