// Ablation A7: multi-core SN datapath (DESIGN.md §9). Measures aggregate
// packets/sec through a full service_node — steering peek, shard decrypt,
// decision-cache consult, terminus verdict — sweeping workers 0/1/2/4/8
// at feed batch sizes 1 and 32. workers == 0 is the single-threaded
// baseline (the inline datapath the earlier ablations measure); the
// speedup claim is aggregate pkts/s at N workers over that baseline on a
// multi-core host. Every arm reports a "workers" counter plus per-shard
// decision-cache hit rates, so the JSON output carries the scaling story.
//
// The timed section includes everything the parallel mode adds: the
// control-thread peek + SipHash steer, the SPSC handoff, the worker-side
// authenticated open against the shard's pipe_rx replica, and wait_idle's
// end-of-burst drain — so a 1-core host honestly shows the coordination
// overhead instead of a free speedup.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/buf_pool.h"
#include "common/clock.h"
#include "core/service_node.h"
#include "ilp/pipe_manager.h"

using namespace interedge;
using namespace interedge::core;

namespace {

constexpr std::size_t kFlows = 64;
constexpr std::size_t kBurst = 1024;  // packets per timed iteration
constexpr std::size_t kPayload = 256;

// Minimal slow-path module: deliver locally and install the fast-path
// entry, mirroring what BM_IngressDatapath's inline channel does. Keeping
// the verdict local (no forward) holds the egress half constant across
// arms so the sweep isolates the ingress scaling.
class deliver_module final : public service_module {
 public:
  ilp::service_id id() const override { return ilp::svc::delivery; }
  std::string_view name() const override { return "bench-deliver"; }
  module_result on_packet(service_context&, const packet& pkt) override {
    module_result r = module_result::deliver();
    r.cache_inserts.emplace_back(
        cache_key{pkt.l3_src, pkt.header.service, pkt.header.connection}, decision::deliver());
    return r;
  }
};

ilp::ilp_header flow_header(ilp::connection_id conn) {
  ilp::ilp_header h;
  h.service = ilp::svc::delivery;
  h.connection = conn;
  return h;
}

// A sender pipe_manager feeding a real service_node, shuttling datagrams
// in memory (no simulator: the control thread is the bench thread).
struct harness {
  real_clock clk;
  std::vector<bytes> sender_out;  // sender -> SN
  std::vector<bytes> sn_out;      // SN -> sender (handshake replies)
  // Slabs the bursts are fed in; declared before the SN, whose shards hold
  // views until they are done with them.
  buf::buf_pool pool{buf::pool_config{.slab_size = 2048, .slab_count = 2 * kBurst}};
  std::unique_ptr<ilp::pipe_manager> sender;
  std::unique_ptr<service_node> sn;

  explicit harness(std::size_t workers) {
    sn_config cfg;
    cfg.id = 2;
    cfg.edomain = 1;
    cfg.workers = workers;
    cfg.shard_ring_depth = 4096;  // >= kBurst: measure throughput, not drops
    sn = std::make_unique<service_node>(
        cfg, clk, [this](peer_id, bytes d) { sn_out.push_back(std::move(d)); },
        [](nanoseconds, std::function<void()>) {}, nullptr);
    sn->env().deploy(std::make_unique<deliver_module>());
    sender = std::make_unique<ilp::pipe_manager>(
        1, [this](peer_id, bytes d) { sender_out.push_back(std::move(d)); },
        [](peer_id, const ilp::ilp_header&, bytes) {});

    // Handshake, then one warming packet per flow so every shard holds its
    // flows' decisions before the timed section.
    sender->connect(2);
    shuttle();
    for (std::size_t f = 0; f < kFlows; ++f) {
      sender->send(2, flow_header(static_cast<ilp::connection_id>(f + 1)),
                   bytes(kPayload, 0x5a));
    }
    shuttle();
    sn->wait_idle(std::chrono::milliseconds(5000));
  }

  void shuttle() {
    while (!sender_out.empty() || !sn_out.empty()) {
      std::vector<bytes> moving;
      moving.swap(sender_out);
      for (const bytes& d : moving) sn->on_datagram(1, d);
      moving.clear();
      moving.swap(sn_out);
      for (const bytes& d : moving) sender->on_datagram(2, d);
      sn->wait_idle(std::chrono::milliseconds(5000));
    }
  }

  // Seals one burst of data datagrams round-robin across the flows. PSP is
  // stateless per packet, so the burst is replayable every iteration.
  std::vector<bytes> preseal() {
    sender_out.clear();
    for (std::size_t i = 0; i < kBurst; ++i) {
      sender->send(2, flow_header(static_cast<ilp::connection_id>(i % kFlows + 1)),
                   bytes(kPayload, 0x77));
    }
    std::vector<bytes> wires;
    wires.swap(sender_out);
    return wires;
  }
};

// One benchmark over both sweep axes: range(0) = workers, range(1) = feed
// batch. Rates are computed against wall-clock time measured around the
// feed + wait_idle of each burst — worker threads do the datapath work, so
// main-thread CPU time would misstate the parallel arms.
void BM_ParallelDatapath(benchmark::State& state) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  const auto feed_batch = static_cast<std::size_t>(state.range(1));
  harness h(workers);
  const std::vector<bytes> wires = h.preseal();

  buf::buf_pool::cache slabs(h.pool);
  std::vector<std::pair<peer_id, buf::pkt_view>> views;
  views.reserve(feed_batch);
  std::uint64_t packets = 0;
  double seconds = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t i = 0;
    while (i < wires.size()) {
      const std::size_t n = std::min(feed_batch, wires.size() - i);
      views.clear();
      // Each burst is copied into pool slabs, as the transport receives
      // into them (the copy is charged to every arm). The pool holds two
      // bursts and wait_idle drains one per iteration, so it never runs dry.
      for (std::size_t k = 0; k < n; ++k) {
        buf::slab_ref slab = slabs.try_alloc();
        std::memcpy(slab.data(), wires[i + k].data(), wires[i + k].size());
        views.emplace_back(1, buf::pkt_view(std::move(slab), 0, wires[i + k].size()));
      }
      h.sn->on_datagram_views(views);
      i += n;
    }
    h.sn->wait_idle(std::chrono::milliseconds(10000));
    seconds += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    packets += wires.size();
  }

  state.SetItemsProcessed(static_cast<std::int64_t>(packets));
  state.counters["workers"] = static_cast<double>(workers);
  state.counters["pkts/s"] = seconds > 0 ? static_cast<double>(packets) / seconds : 0;
  if (workers == 0) {
    const cache_stats& cs = h.sn->cache().stats();
    const double looked = static_cast<double>(cs.hits + cs.misses);
    state.counters["hit_rate"] = looked > 0 ? static_cast<double>(cs.hits) / looked : 0;
  } else {
    std::uint64_t drops = 0;
    for (std::size_t s = 0; s < h.sn->worker_count(); ++s) {
      const cache_stats& cs = h.sn->shard_cache_stats(s);
      const double looked = static_cast<double>(cs.hits + cs.misses);
      state.counters["shard" + std::to_string(s) + "_hit_rate"] =
          looked > 0 ? static_cast<double>(cs.hits) / looked : 0;
      drops += h.sn->metrics()
                   .get_counter("sn.shard.ingress_drops", {{"shard", std::to_string(s)}})
                   .value();
    }
    state.counters["ingress_drops"] = static_cast<double>(drops);
  }
}

}  // namespace

BENCHMARK(BM_ParallelDatapath)
    ->Args({0, 1})
    ->Args({0, 32})
    ->Args({1, 1})
    ->Args({1, 32})
    ->Args({2, 1})
    ->Args({2, 32})
    ->Args({4, 1})
    ->Args({4, 32})
    ->Args({8, 1})
    ->Args({8, 32})
    ->UseRealTime();

BENCHMARK_MAIN();
