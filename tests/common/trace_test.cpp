// Per-hop packet tracing (ISSUE 2): sampler determinism, span nesting
// through the thread-local current tracer, and the sampled-record ring.
#include "common/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/metrics.h"

namespace interedge::trace {
namespace {

TEST(Tracer, SamplerIsDeterministic) {
  metrics_registry reg;
  tracer t(reg, tracer::config{.sample_shift = 2});  // 1 in 4
  std::vector<bool> hits;
  for (int i = 0; i < 12; ++i) hits.push_back(t.sample_tick());
  const std::vector<bool> expected = {true, false, false, false, true, false,
                                      false, false, true, false, false, false};
  EXPECT_EQ(hits, expected);
  EXPECT_EQ(t.packets_seen(), 12u);
}

TEST(Tracer, BatchSamplerMatchesPerPacketSampler) {
  metrics_registry reg;
  tracer batched(reg, tracer::config{.sample_shift = 3});
  tracer scalar(reg, tracer::config{.sample_shift = 3});
  // Two batches of 5 and 11 must sample exactly the packets the scalar
  // tick would, at the same sequence positions.
  std::vector<bool> from_batch, from_scalar;
  for (const std::uint64_t n : {5u, 11u}) {
    const std::uint64_t base = batched.sample_tick_batch(n);
    for (std::uint64_t i = 0; i < n; ++i) from_batch.push_back(batched.sample_hit(base + i));
    for (std::uint64_t i = 0; i < n; ++i) from_scalar.push_back(scalar.sample_tick());
  }
  EXPECT_EQ(from_batch, from_scalar);
  EXPECT_EQ(batched.packets_seen(), 16u);
}

TEST(Tracer, SampleShiftZeroSamplesEveryPacket) {
  metrics_registry reg;
  tracer t(reg, tracer::config{.sample_shift = 0});
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(t.sample_tick());
}

TEST(Tracer, StageHistogramsAreInternedIntoRegistry) {
  metrics_registry reg;
  tracer t(reg);
  const auto families = reg.family_names();
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const std::string name = std::string("sn.stage.") + stage_name(static_cast<stage>(i));
    EXPECT_NE(std::find(families.begin(), families.end(), name), families.end())
        << "missing " << name;
  }
  t.record_stage(stage::decrypt, 1500);
  EXPECT_EQ(reg.get_histogram("sn.stage.decrypt").count(), 1u);
  EXPECT_EQ(&t.stage_hist(stage::decrypt), &reg.get_histogram("sn.stage.decrypt"));
}

TEST(Span, NoOpWithoutCurrentTracer) {
  ASSERT_EQ(current(), nullptr);
  {
    span s(stage::cache);
    EXPECT_EQ(span_depth(), 0);  // untraced spans don't touch the depth stack
  }
  EXPECT_EQ(span_depth(), 0);
}

TEST(Span, NestingTracksDepthAndRecordsEachStage) {
  metrics_registry reg;
  tracer t(reg);
  scoped_tracer install(&t);
  EXPECT_EQ(span_depth(), 0);
  {
    span outer(stage::ingress);
    EXPECT_EQ(span_depth(), 1);
    {
      span inner(stage::decrypt);
      EXPECT_EQ(span_depth(), 2);
    }
    EXPECT_EQ(span_depth(), 1);
    EXPECT_EQ(t.stage_hist(stage::decrypt).count(), 1u);  // inner closed already
    EXPECT_EQ(t.stage_hist(stage::ingress).count(), 0u);  // outer still open
  }
  EXPECT_EQ(span_depth(), 0);
  EXPECT_EQ(t.stage_hist(stage::ingress).count(), 1u);
}

TEST(Span, CaptureRecordsDepthAndVerdict) {
  metrics_registry reg;
  tracer t(reg, tracer::config{.hop = 42});
  scoped_tracer install(&t);
  {
    span outer(stage::ingress, /*capture=*/true);
    span inner(stage::emit, /*capture=*/true);
    inner.set_verdict(kVerdictForward);
  }
  const auto records = t.recent();
  ASSERT_EQ(records.size(), 2u);
  // Most-recent-first: outer closes after inner.
  EXPECT_EQ(records[0].st, stage::ingress);
  EXPECT_EQ(records[0].depth, 0);
  EXPECT_EQ(records[0].verdict, kVerdictNone);
  EXPECT_EQ(records[1].st, stage::emit);
  EXPECT_EQ(records[1].depth, 1);
  EXPECT_EQ(records[1].verdict, kVerdictForward);
  EXPECT_EQ(records[0].hop, 42u);
  EXPECT_EQ(t.sampled(), 2u);
}

TEST(Tracer, RingWrapKeepsMostRecentRecords) {
  metrics_registry reg;
  tracer t(reg, tracer::config{.ring_capacity = 4});
  for (std::uint64_t i = 0; i < 10; ++i) {
    t.capture(stage::cache, /*start_ns=*/i, /*duration_ns=*/i * 10);
  }
  const auto all = t.recent();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0].seq, 9u);
  EXPECT_EQ(all[3].seq, 6u);
  EXPECT_EQ(all[0].duration_ns, 90u);
  const auto limited = t.recent(2);
  ASSERT_EQ(limited.size(), 2u);
  EXPECT_EQ(limited[1].seq, 8u);
  EXPECT_EQ(t.sampled(), 10u);
}

TEST(Tracer, DumpIsHumanReadable) {
  metrics_registry reg;
  tracer t(reg, tracer::config{.hop = 7});
  t.capture(stage::slowpath, 100, 2500, kVerdictDrop);
  const std::string out = t.dump();
  EXPECT_NE(out.find("hop=7"), std::string::npos);
  EXPECT_NE(out.find("stage=slowpath"), std::string::npos);
  EXPECT_NE(out.find("dur=2500ns"), std::string::npos);
  EXPECT_NE(out.find("verdict=X"), std::string::npos);
}

TEST(Tracer, WrapBetweenExportsCountsDroppedRecords) {
  metrics_registry reg;
  tracer t(reg, tracer::config{.ring_capacity = 4});
  for (std::uint64_t i = 0; i < 4; ++i) t.capture(stage::cache, i, 10);
  t.recent();
  EXPECT_EQ(t.dropped_records(), 0u);
  // 10 captures since the last export against 4 slots: 6 records wrapped
  // out unread, and the export must say so instead of truncating silently.
  for (std::uint64_t i = 0; i < 10; ++i) t.capture(stage::cache, i, 10);
  t.recent();
  EXPECT_EQ(t.dropped_records(), 6u);
  // An in-capacity burst accrues nothing further (cumulative counter).
  t.capture(stage::cache, 0, 10);
  t.recent();
  EXPECT_EQ(t.dropped_records(), 6u);
}

// ---- cross-hop trace context (ISSUE 5) --------------------------------

TEST(TraceContext, EncodeDecodeRoundTrip) {
  trace_context ctx;
  ctx.trace_id = 0xabcdef0123456789ull;
  ctx.parent_span = 0x1122334455667788ull;
  ctx.hop_count = 3;
  ctx.flags = kTraceCtxSampled;
  const auto wire = ctx.encode();
  ASSERT_EQ(wire.size(), kTraceCtxSize);
  EXPECT_EQ(wire[0], kTraceCtxVersion);
  const auto back = trace_context::decode(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, ctx);
  EXPECT_TRUE(back->sampled());
}

TEST(TraceContext, ShortBufferAndUnknownVersionRejected) {
  trace_context ctx;
  ctx.trace_id = 7;
  auto wire = ctx.encode();
  // Short input: a truncated TLV must read as "untraced", not garbage.
  EXPECT_FALSE(trace_context::decode(const_byte_span(wire.data(), wire.size() - 1)).has_value());
  // Unknown version: an un-upgraded peer's view of a future layout.
  wire[0] = kTraceCtxVersion + 1;
  EXPECT_FALSE(trace_context::decode(wire).has_value());
}

TEST(TraceContext, TrailingBytesTolerated) {
  trace_context ctx;
  ctx.trace_id = 42;
  ctx.hop_count = 2;
  const auto enc = ctx.encode();
  bytes wire(enc.begin(), enc.end());
  wire.push_back(0xaa);  // future minor revision appends a field
  const auto back = trace_context::decode(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->trace_id, 42u);
  EXPECT_EQ(back->hop_count, 2);
}

// ---- path_recorder ----------------------------------------------------

TEST(PathRecorder, OriginSamplerIsDeterministic) {
  path_recorder rec({.node = 1, .sample_shift = 2});
  std::vector<bool> hits;
  for (int i = 0; i < 8; ++i) hits.push_back(rec.sample_tick());
  const std::vector<bool> expected = {true, false, false, false, true, false, false, false};
  EXPECT_EQ(hits, expected);

  path_recorder every({.node = 1, .sample_shift = 0});
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(every.sample_tick());
}

TEST(PathRecorder, IdsAreDeterministicPerNodeAndDistinctAcrossNodes) {
  path_recorder a1({.node = 5}), a2({.node = 5}), b({.node = 6});
  // Same node, same call sequence: identical ids (simnet replay).
  EXPECT_EQ(a1.new_trace_id(), a2.new_trace_id());
  EXPECT_EQ(a1.next_span_id(), a2.next_span_id());
  // Different nodes never collide at the same sequence position.
  path_recorder c({.node = 5});
  EXPECT_NE(c.new_trace_id(), b.new_trace_id());
  EXPECT_NE(c.next_span_id(), b.next_span_id());
  // Ids are never 0 (0 means "node event" / "no parent").
  EXPECT_NE(a1.new_trace_id(), 0u);
  EXPECT_NE(a1.next_span_id(), 0u);
}

TEST(PathRecorder, EmitDrainPreservesOrderAndCountsFullRingDrops) {
  path_recorder rec({.node = 3, .capacity = 4});
  for (std::uint64_t i = 1; i <= 20; ++i) {
    path_span s;
    s.trace_id = 9;
    s.span_id = i;
    rec.emit(s);
  }
  EXPECT_EQ(rec.emitted() + rec.dropped(), 20u);
  EXPECT_GT(rec.dropped(), 0u);  // tracing never blocks: full ring = drop
  std::vector<path_span> out;
  while (rec.drain(out) > 0) {
  }
  ASSERT_EQ(out.size(), rec.emitted());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].span_id, i + 1);  // FIFO
  }
}

TEST(PathRecorder, InjectedClockDrivesTimestamps) {
  manual_clock clk;
  clk.advance(std::chrono::nanoseconds(12345));
  path_recorder rec({.node = 2, .clk = &clk});
  EXPECT_EQ(rec.now(), 12345u);
  clk.advance(std::chrono::nanoseconds(55));
  EXPECT_EQ(rec.now(), 12400u);
}

TEST(ScopedTracer, RestoresPreviousTracer) {
  metrics_registry reg;
  tracer a(reg), b(reg);
  EXPECT_EQ(current(), nullptr);
  {
    scoped_tracer sa(&a);
    EXPECT_EQ(current(), &a);
    {
      scoped_tracer sb(&b);
      EXPECT_EQ(current(), &b);
    }
    EXPECT_EQ(current(), &a);
  }
  EXPECT_EQ(current(), nullptr);
}

}  // namespace
}  // namespace interedge::trace
