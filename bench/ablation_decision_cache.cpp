// Ablation A1: the decision cache. Measures the fast path (cache hit) vs
// the slow path (miss -> service module via the inline channel), the cost
// of eviction churn, and the hit-rate sweep through the pipe-terminus —
// quantifying why ILP is designed for cacheability (§4 goal 3).
#include <benchmark/benchmark.h>

#include "core/decision_cache.h"
#include "core/pipe_terminus.h"

using namespace interedge;
using namespace interedge::core;

namespace {

cache_key key_of(std::uint64_t i) { return cache_key{i, 1, i * 7}; }

void BM_Cache_Hit(benchmark::State& state) {
  decision_cache cache(4096);
  for (std::uint64_t i = 0; i < 1024; ++i) cache.insert(key_of(i), decision::forward_to(i));
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(key_of(i++ % 1024)));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Cache_Miss(benchmark::State& state) {
  decision_cache cache(4096);
  std::uint64_t i = 1u << 20;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(key_of(i++)));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Cache_InsertWithEviction(benchmark::State& state) {
  decision_cache cache(static_cast<std::size_t>(state.range(0)));
  std::uint64_t i = 0;
  for (auto _ : state) {
    cache.insert(key_of(i++), decision::forward_to(1));
  }
  state.SetItemsProcessed(state.iterations());
}

// Terminus-level sweep: what a given hit rate means for per-packet cost.
void BM_Terminus_HitRateSweep(benchmark::State& state) {
  const int hit_percent = static_cast<int>(state.range(0));

  decision_cache cache(1 << 16);
  inline_channel channel([](slowpath_request req) {
    slowpath_response resp;
    resp.token = req.token;
    resp.verdict = decision::forward_to(2);
    return resp;
  });
  std::uint64_t forwarded = 0;
  pipe_terminus terminus(cache, channel,
                         [&forwarded](peer_id, const ilp::ilp_header&, const_byte_span) {
                           ++forwarded;
                         });

  // Pre-install decisions for the "hot" connections.
  for (std::uint64_t c = 0; c < 100; ++c) {
    cache.insert(cache_key{1, ilp::svc::null_service, c}, decision::forward_to(2));
  }

  packet pkt;
  pkt.l3_src = 1;
  pkt.header.service = ilp::svc::null_service;
  pkt.payload = bytes(64, 0);

  std::uint64_t i = 0;
  std::uint64_t cold = 1u << 20;
  for (auto _ : state) {
    const bool hit = static_cast<int>(i % 100) < hit_percent;
    pkt.header.connection = hit ? (i % 100) : cold++;
    ++i;
    packet_view one{pkt.l3_src, pkt.header, pkt.payload};
    terminus.handle_batch(std::span(&one, 1));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["fast_path"] = static_cast<double>(terminus.stats().fast_path);
}

}  // namespace

BENCHMARK(BM_Cache_Hit);
BENCHMARK(BM_Cache_Miss);
BENCHMARK(BM_Cache_InsertWithEviction)->Arg(256)->Arg(4096)->Arg(65536);
BENCHMARK(BM_Terminus_HitRateSweep)->Arg(0)->Arg(50)->Arg(90)->Arg(100);

BENCHMARK_MAIN();
