#include "common/flight_recorder.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace interedge {
namespace {

fr_event ev(std::uint64_t t, std::uint64_t x) {
  fr_event e;
  e.time_ns = t;
  e.kind = fr_kind::span;
  e.code = 7;
  e.a = x;
  e.b = x;
  e.c = x;
  return e;
}

TEST(FlightRecorder, RecordRoundTripsInTicketOrder) {
  flight_recorder fr(flight_recorder::config{.capacity = 8});
  for (std::uint64_t i = 0; i < 5; ++i) fr.record(ev(100 + i, i));
  const std::vector<fr_event> got = fr.snapshot();
  ASSERT_EQ(got.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(got[i].time_ns, 100 + i);
    EXPECT_EQ(got[i].kind, fr_kind::span);
    EXPECT_EQ(got[i].code, 7u);
    EXPECT_EQ(got[i].a, i);
    EXPECT_EQ(got[i].c, i);
  }
  EXPECT_EQ(fr.recorded(), 5u);
  EXPECT_EQ(fr.dropped_frozen(), 0u);
  EXPECT_EQ(fr.dropped_contended(), 0u);  // one writer never contends
}

TEST(FlightRecorder, WrapKeepsTheLatestTail) {
  flight_recorder fr(flight_recorder::config{.capacity = 4});
  for (std::uint64_t i = 0; i < 10; ++i) fr.record(ev(i, i));
  const std::vector<fr_event> got = fr.snapshot();
  ASSERT_EQ(got.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(got[i].a, 6 + i);
}

TEST(FlightRecorder, ArmedTriggerFreezesOnceAndFiresHook) {
  flight_recorder fr(flight_recorder::config{.capacity = 16, .trigger_mask = kTrigShed});
  int hook_fires = 0;
  std::uint32_t hook_trig = 0;
  fr.set_freeze_hook([&](std::uint32_t trig) {
    ++hook_fires;
    hook_trig = trig;
  });
  fr.record(ev(1, 1));
  fr.trigger(kTrigShed, 2, 42);
  EXPECT_TRUE(fr.frozen());
  EXPECT_EQ(fr.frozen_by(), kTrigShed);
  EXPECT_EQ(hook_fires, 1);
  EXPECT_EQ(hook_trig, kTrigShed);

  // Frozen: further records and re-triggers are dropped, the tail stays.
  fr.record(ev(3, 3));
  fr.trigger(kTrigShed, 4);
  EXPECT_EQ(hook_fires, 1);
  EXPECT_GE(fr.dropped_frozen(), 2u);
  const std::vector<fr_event> got = fr.snapshot();
  ASSERT_EQ(got.size(), 2u);  // the span + the triggering event
  EXPECT_EQ(got[1].kind, fr_kind::trigger);
  EXPECT_EQ(got[1].code, kTrigShed);
  EXPECT_EQ(got[1].a, 42u);
}

TEST(FlightRecorder, UnarmedTriggerRecordsWithoutFreezing) {
  flight_recorder fr(flight_recorder::config{.capacity = 16, .trigger_mask = kTrigSloPage});
  fr.trigger(kTrigPeerDown, 1);
  EXPECT_FALSE(fr.frozen());
  const std::vector<fr_event> got = fr.snapshot();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].kind, fr_kind::trigger);
  EXPECT_EQ(got[0].code, kTrigPeerDown);
}

TEST(FlightRecorder, RearmResumesRecording) {
  flight_recorder fr(flight_recorder::config{.capacity = 16});
  fr.trigger(kTrigManual, 1);
  ASSERT_TRUE(fr.frozen());
  fr.rearm();
  EXPECT_FALSE(fr.frozen());
  EXPECT_EQ(fr.frozen_by(), 0u);
  fr.record(ev(2, 2));
  EXPECT_EQ(fr.snapshot().size(), 2u);
}

TEST(FlightRecorder, DumpJsonCarriesHeaderAndTriggerNames) {
  flight_recorder fr(flight_recorder::config{.capacity = 16});
  fr.record(ev(1, 1));
  fr.trigger(kTrigSloPage, 2);
  const std::string j = fr.dump_json();
  EXPECT_NE(j.find("\"frozen\":true"), std::string::npos);
  EXPECT_NE(j.find("\"trigger\":\"slo_page\""), std::string::npos);
  EXPECT_NE(j.find("\"kind\":\"span\""), std::string::npos);
  EXPECT_NE(j.find("\"kind\":\"trigger\""), std::string::npos);
}

TEST(FlightRecorder, TriggerNamesJoinMaskBits) {
  EXPECT_EQ(fr_trigger_names(kTrigPeerDown | kTrigWatchdog), "peer_down|watchdog");
  EXPECT_EQ(fr_trigger_names(0), "");
}

// TSan target: multi-producer records racing a snapshotting reader and a
// mid-run freeze. Every event writes a == b == c, so any torn slot the
// seqlock validation failed to reject would surface as a mismatched
// triple.
TEST(FlightRecorder, ConcurrentRecordersStayConsistent) {
  flight_recorder fr(flight_recorder::config{.capacity = 64, .trigger_mask = kTrigManual});
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20'000;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&, w] {
      while (!go.load(std::memory_order_acquire)) {}
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const std::uint64_t x = static_cast<std::uint64_t>(w) * kPerThread + i;
        fr.record(ev(x, x));
      }
    });
  }
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      for (const fr_event& e : fr.snapshot()) {
        ASSERT_EQ(e.a, e.b);
        ASSERT_EQ(e.a, e.c);
      }
    }
  });
  go.store(true, std::memory_order_release);
  writers[0].join();
  // Freeze while the other writers are (possibly) still recording.
  fr.trigger(kTrigManual, 999);
  for (int w = 1; w < kThreads; ++w) writers[w].join();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_TRUE(fr.frozen());
  for (const fr_event& e : fr.snapshot()) {
    if (e.kind == fr_kind::trigger) continue;
    EXPECT_EQ(e.a, e.b);
    EXPECT_EQ(e.a, e.c);
  }
  // Every event is recorded, refused by the freeze, or dropped because a
  // writer a full ring ahead held its slot.
  EXPECT_EQ(fr.recorded() + fr.dropped_frozen() + fr.dropped_contended(),
            static_cast<std::uint64_t>(kThreads) * kPerThread + 1);
}

}  // namespace
}  // namespace interedge
