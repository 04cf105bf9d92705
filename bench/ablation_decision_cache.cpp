// Ablation A1: the decision cache. Measures the fast path (cache hit) vs
// the slow path (miss -> service module via the inline channel), the cost
// of eviction churn, and the hit-rate sweep through the pipe-terminus —
// quantifying why ILP is designed for cacheability (§4 goal 3).
//
// Hit, miss and insert run on full caches of 4096 and 65 536 entries:
// probing an empty table says nothing about a miss on a loaded one.
// BM_Cache_ZipfChurn replays flow_churn's key stream (Zipf 0.9 over
// 262 144 flows from 4 sources into a 4096-entry cache), a lookup per
// packet and an insert on each miss.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/decision_cache.h"
#include "core/pipe_terminus.h"
#include "scenario/workload.h"

using namespace interedge;
using namespace interedge::core;

namespace {

cache_key key_of(std::uint64_t i) { return cache_key{i, 1, i * 7}; }

// A cache holding keys [0, capacity).
void fill(decision_cache& cache) {
  for (std::uint64_t i = 0; i < cache.capacity(); ++i) {
    cache.insert(key_of(i), decision::forward_to(i));
  }
}

void BM_Cache_Hit(benchmark::State& state) {
  decision_cache cache(static_cast<std::size_t>(state.range(0)));
  fill(cache);
  // A stride coprime with the capacity walks every entry in turn.
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(key_of(i)));
    i = (i + 1021) % cache.capacity();
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Cache_Miss(benchmark::State& state) {
  decision_cache cache(static_cast<std::size_t>(state.range(0)));
  fill(cache);
  std::uint64_t i = 1u << 30;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(key_of(i++)));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Cache_InsertWithEviction(benchmark::State& state) {
  decision_cache cache(static_cast<std::size_t>(state.range(0)));
  fill(cache);
  std::uint64_t i = 1u << 30;
  for (auto _ : state) {
    cache.insert(key_of(i++), decision::forward_to(1));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["evictions"] = static_cast<double>(cache.stats().evictions);
}

void BM_Cache_ZipfChurn(benchmark::State& state) {
  constexpr std::size_t kFlows = 262144;
  constexpr std::size_t kSources = 4;
  constexpr std::size_t kStream = 1 << 20;
  std::vector<cache_key> stream;
  stream.reserve(kStream);
  scenario::zipf_sampler zipf(kFlows, 0.9, 1);
  for (std::size_t i = 0; i < kStream; ++i) {
    const std::size_t flow = zipf.next();
    stream.push_back(
        cache_key{flow % kSources + 1, ilp::svc::delivery, flow * 0x9e3779b97f4a7c15ull});
  }
  decision_cache cache(4096);
  std::size_t i = 0;
  for (auto _ : state) {
    const cache_key& k = stream[i];
    if (!cache.lookup(k)) cache.insert(k, decision::forward_to(2));
    i = (i + 1) & (kStream - 1);
  }
  state.SetItemsProcessed(state.iterations());
  const cache_stats& st = cache.stats();
  state.counters["hit_ratio"] =
      static_cast<double>(st.hits) / static_cast<double>(st.hits + st.misses);
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

BENCHMARK(BM_Cache_Hit)->Arg(4096)->Arg(65536);
BENCHMARK(BM_Cache_Miss)->Arg(4096)->Arg(65536);
BENCHMARK(BM_Cache_InsertWithEviction)->Arg(256)->Arg(4096)->Arg(65536);
BENCHMARK(BM_Cache_ZipfChurn);
BENCHMARK(BM_Terminus_HitRateSweep)->Arg(0)->Arg(50)->Arg(90)->Arg(100);

BENCHMARK_MAIN();
