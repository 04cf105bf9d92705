// Ablation A7: telemetry primitives (ISSUE 2). Quantifies why the hot
// paths hold metric handles instead of names:
//   * string lookup (mutex + map per event) vs a cached counter& — the
//     migration the service modules went through; expected ≥10x;
//   * plain counter vs sharded_counter under multi-threaded contention;
//   * histogram record and tracer sampler costs, the per-event prices the
//     <2% datapath overhead budget (DESIGN.md §8) is built from;
//   * exposition cost for a registry of realistic size.
// The cross-hop arms (ISSUE 5) price the path-tracing building blocks the
// same way: context codec, the per-packet header-metadata miss every
// unsampled packet pays, span emit + drain, and collector reassembly.
// The health-plane arms (ISSUE 7) price the rollup tick, burn-rate
// queries/evaluation, and the flight-recorder append — the costs behind
// the plane's own share of the <2% budget.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/flight_recorder.h"
#include "common/metrics.h"
#include "common/slo.h"
#include "common/timeseries.h"
#include "common/trace.h"
#include "common/trace_collector.h"
#include "ilp/header.h"

using namespace interedge;

namespace {

// A live SN interns dozens of series (datapath counters, per-service rx
// families, stage histograms, per-module dispatch counters); lookups pay
// a map walk of that size, so the before/after arms measure against a
// realistically populated registry, not a one-entry toy.
void populate_sn_sized(metrics_registry& reg) {
  for (int i = 0; i < 24; ++i) {
    reg.get_counter("sn.family." + std::to_string(i));
  }
  for (const char* svc : {"delivery", "pubsub", "multicast", "anycast", "qos", "odns", "mixnet",
                          "ddos", "vpn", "mq", "ordered", "bulk", "firewall", "streaming",
                          "mobility", "cluster"}) {
    reg.get_counter("sn.rx.pkts", {{"service", svc}});
    reg.get_counter("sn.slowpath.dispatch", {{"service", svc}});
  }
  for (int i = 0; i < 8; ++i) {
    reg.get_histogram("sn.stage." + std::to_string(i));
  }
}

// The "before" of the service migration: every event pays the registry
// mutex and the name-map lookup.
void BM_CounterStringLookup(benchmark::State& state) {
  metrics_registry reg;
  populate_sn_sized(reg);
  reg.get_counter("vpn.redirected");
  for (auto _ : state) {
    reg.get_counter("vpn.redirected").add();
  }
  state.SetItemsProcessed(state.iterations());
}

// The "after": handle resolved once, hot path is one relaxed fetch_add.
void BM_CounterHandle(benchmark::State& state) {
  metrics_registry reg;
  populate_sn_sized(reg);
  counter& c = reg.get_counter("vpn.redirected");
  for (auto _ : state) {
    c.add();
  }
  state.SetItemsProcessed(state.iterations());
}

// Labeled lookup is costlier still (label rendering per call) — the case
// for resolving per-service families like sn.rx.pkts{service=...} once.
void BM_CounterLabeledLookup(benchmark::State& state) {
  metrics_registry reg;
  populate_sn_sized(reg);
  for (auto _ : state) {
    reg.get_counter("sn.rx.pkts", {{"service", "odns"}}).add();
  }
  state.SetItemsProcessed(state.iterations());
}

void contended_adds(benchmark::State& state, bool sharded) {
  static metrics_registry reg;
  if (sharded) {
    sharded_counter& c = reg.get_sharded_counter("bench.sharded");
    for (auto _ : state) c.add();
  } else {
    counter& c = reg.get_counter("bench.plain");
    for (auto _ : state) c.add();
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_CounterContended(benchmark::State& state) { contended_adds(state, false); }
void BM_ShardedCounterContended(benchmark::State& state) { contended_adds(state, true); }

void BM_HistogramRecord(benchmark::State& state) {
  metrics_registry reg;
  histogram& h = reg.get_histogram("bench.latency");
  std::uint64_t v = 1;
  for (auto _ : state) {
    h.record(v);
    v = v * 2862933555777941757ull + 3037000493ull;  // cheap LCG spread
    v &= 0xffffff;                                   // keep in the ns range
  }
  state.SetItemsProcessed(state.iterations());
}

// Per-packet sampler cost: one relaxed fetch_add + mask compare.
void BM_TracerSampleTick(benchmark::State& state) {
  metrics_registry reg;
  trace::tracer tr(reg, trace::tracer::config{.sample_shift = 8});
  bool hit = false;
  for (auto _ : state) {
    hit ^= tr.sample_tick();
  }
  benchmark::DoNotOptimize(hit);
  state.SetItemsProcessed(state.iterations());
}

// Span over the current tracer: two clock reads + a histogram record.
void BM_TracerSpan(benchmark::State& state) {
  metrics_registry reg;
  trace::tracer tr(reg);
  trace::scoped_tracer st(&tr);
  for (auto _ : state) {
    trace::span s(trace::stage::cache);
  }
  state.SetItemsProcessed(state.iterations());
}

// Exposition over a registry of realistic size (the SN interns a few
// dozen families): the cost an operator pays per scrape, off the hot path.
void BM_ExportPrometheus(benchmark::State& state) {
  metrics_registry reg;
  for (int i = 0; i < 32; ++i) {
    reg.get_counter("sn.family." + std::to_string(i)).add(i);
  }
  for (int i = 0; i < 8; ++i) {
    reg.get_histogram("sn.stage." + std::to_string(i)).record(100 + i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.export_prometheus());
  }
  state.SetItemsProcessed(state.iterations());
}

// ---- cross-hop path tracing (ISSUE 5) ----------------------------------

// The 19-byte wire context round-trip: encode into a stack buffer, decode
// back. Paid once per hop on the sampled path only.
void BM_TraceCtxCodec(benchmark::State& state) {
  trace::trace_context ctx;
  ctx.trace_id = 0xabcdef0123456789ull;
  ctx.parent_span = 0x1122334455667788ull;
  ctx.hop_count = 3;
  ctx.flags = trace::kTraceCtxSampled;
  for (auto _ : state) {
    const auto wire = ctx.encode();
    auto back = trace::trace_context::decode(wire);
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(state.iterations());
}

// What every UNSAMPLED packet pays at a tracing-enabled hop: one failed
// metadata lookup on the decoded header. This is the number the <2%
// datapath budget (DESIGN.md §11) rides on.
void BM_HeaderCtxLookupMiss(benchmark::State& state) {
  ilp::ilp_header h;
  h.service = ilp::svc::delivery;
  h.connection = 777;
  for (auto _ : state) {
    auto ctx = h.trace_ctx();
    benchmark::DoNotOptimize(ctx);
  }
  state.SetItemsProcessed(state.iterations());
}

// The sampled-path counterpart: lookup + decode of a present context.
void BM_HeaderCtxLookupHit(benchmark::State& state) {
  ilp::ilp_header h;
  h.service = ilp::svc::delivery;
  h.connection = 777;
  trace::trace_context ctx;
  ctx.trace_id = 42;
  ctx.flags = trace::kTraceCtxSampled;
  h.set_trace(ctx);
  for (auto _ : state) {
    auto back = h.trace_ctx();
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(state.iterations());
}

// Per-sampled-packet span emit into the SPSC ring, with the consumer-side
// drain amortized the way the SN control loop runs it.
void BM_PathRecorderEmitDrain(benchmark::State& state) {
  trace::path_recorder rec(trace::path_recorder::config{.node = 7, .capacity = 4096});
  trace::path_span s;
  s.trace_id = 1;
  s.node = 7;
  s.kind = trace::span_kind::hop_fast;
  std::vector<trace::path_span> drained;
  std::uint64_t i = 0;
  for (auto _ : state) {
    s.span_id = ++i;
    rec.emit(s);
    if ((i & 0xff) == 0) {
      drained.clear();
      rec.drain(drained, 256);
    }
  }
  benchmark::DoNotOptimize(drained);
  state.SetItemsProcessed(state.iterations());
}

// Collector-side cost per ingested span: dedup check, trace-table upkeep.
// Off the datapath (control thread / edomain plane), but bounds how many
// spans a plane can fold per push.
void BM_CollectorIngest(benchmark::State& state) {
  trace::trace_collector col(1024);
  trace::path_span s;
  s.node = 7;
  s.kind = trace::span_kind::hop_fast;
  std::uint64_t i = 0;
  for (auto _ : state) {
    ++i;
    s.trace_id = i & 0x3ff;  // cycle the trace table
    s.span_id = i;
    col.ingest(s);
  }
  state.SetItemsProcessed(state.iterations());
}

// ---- SLO health plane (ISSUE 7) ----------------------------------------

// One health tick over an SN-sized registry: snapshot + diff every series
// into the window ring. Runs on the control thread at ~100ms cadence, so
// its absolute cost (not a per-packet rate) is what the <2% budget sees.
void BM_TimeseriesTick(benchmark::State& state) {
  metrics_registry reg;
  populate_sn_sized(reg);
  timeseries_store ts(timeseries_store::config{});
  std::int64_t ns = 0;
  std::uint64_t i = 0;
  for (auto _ : state) {
    // Mutate a few series so every tick diffs real movement.
    reg.get_counter("sn.family.0").add(3);
    reg.get_histogram("sn.stage.0").record(1000 + (i++ & 0xff));
    ns += 100'000'000;  // 100ms cadence
    ts.tick(reg, time_point(nanoseconds(ns)));
  }
  state.SetItemsProcessed(state.iterations());
}

// A burn-rate query: merge the span's window sketches and threshold them.
void BM_TimeseriesFractionAbove(benchmark::State& state) {
  metrics_registry reg;
  histogram& h = reg.get_histogram("lat");
  timeseries_store ts(timeseries_store::config{});
  std::int64_t ns = 0;
  for (int t = 0; t < 64; ++t) {
    for (int i = 0; i < 64; ++i) h.record(1'000'000 + i * 10'000);
    ns += 10'000'000'000ll;
    ts.tick(reg, time_point(nanoseconds(ns)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ts.hist_fraction_above("lat", std::chrono::minutes(5), 2'000'000));
  }
  state.SetItemsProcessed(state.iterations());
}

// A full multi-window evaluation pass over a handful of targets — four
// burn queries per target per tick.
void BM_SloEvaluate(benchmark::State& state) {
  metrics_registry reg;
  histogram& h = reg.get_histogram("lat");
  timeseries_store ts(timeseries_store::config{});
  slo::slo_monitor mon(ts, slo::burn_windows{});
  for (int i = 0; i < 4; ++i) {
    slo::slo_target t;
    t.name = std::string("t").append(std::to_string(i));
    t.service = "delivery";
    t.latency_series = "lat";
    t.threshold_ns = 2'000'000;
    mon.add_target(t);
  }
  std::int64_t ns = 0;
  for (int t = 0; t < 64; ++t) {
    for (int i = 0; i < 64; ++i) h.record(1'000'000);
    ns += 10'000'000'000ll;
    ts.tick(reg, time_point(nanoseconds(ns)));
  }
  for (auto _ : state) {
    mon.evaluate(time_point(nanoseconds(ns)));
  }
  state.SetItemsProcessed(state.iterations() * 4);
}

// Per-event flight-recorder append: one fetch_add + six relaxed stores.
// This is the price the span drain pays per event while the box is armed
// — the recorder-side share of the <2% budget.
void BM_FlightRecorderRecord(benchmark::State& state) {
  static flight_recorder fr(flight_recorder::config{.capacity = 1024, .trigger_mask = 0});
  fr_event e;
  e.kind = fr_kind::span;
  std::uint64_t i = 0;
  for (auto _ : state) {
    e.time_ns = ++i;
    e.a = i;
    fr.record(e);
  }
  state.SetItemsProcessed(state.iterations());
}

// The postmortem read: validate + sort the whole ring. Paid once per
// freeze, never on a datapath.
void BM_FlightRecorderSnapshot(benchmark::State& state) {
  flight_recorder fr(flight_recorder::config{.capacity = 1024, .trigger_mask = 0});
  for (std::uint64_t i = 0; i < 2048; ++i) {
    fr.record(fr_event{.time_ns = i, .kind = fr_kind::span, .a = i});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fr.snapshot());
  }
  state.SetItemsProcessed(state.iterations());
}

}  // namespace

BENCHMARK(BM_CounterStringLookup);
BENCHMARK(BM_CounterHandle);
BENCHMARK(BM_CounterLabeledLookup);
BENCHMARK(BM_CounterContended)->Threads(1)->Threads(4)->Threads(8);
BENCHMARK(BM_ShardedCounterContended)->Threads(1)->Threads(4)->Threads(8);
BENCHMARK(BM_HistogramRecord);
BENCHMARK(BM_TracerSampleTick);
BENCHMARK(BM_TracerSpan);
BENCHMARK(BM_ExportPrometheus);
BENCHMARK(BM_TraceCtxCodec);
BENCHMARK(BM_HeaderCtxLookupMiss);
BENCHMARK(BM_HeaderCtxLookupHit);
BENCHMARK(BM_PathRecorderEmitDrain);
BENCHMARK(BM_CollectorIngest);
BENCHMARK(BM_TimeseriesTick);
BENCHMARK(BM_TimeseriesFractionAbove);
BENCHMARK(BM_SloEvaluate);
BENCHMARK(BM_FlightRecorderRecord)->Threads(1)->Threads(4);
BENCHMARK(BM_FlightRecorderSnapshot);

BENCHMARK_MAIN();
