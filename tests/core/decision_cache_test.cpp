#include "core/decision_cache.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/serial.h"

namespace interedge::core {
namespace {

cache_key key_of(std::uint64_t n) { return cache_key{n, static_cast<ilp::service_id>(n % 7), n * 3}; }

TEST(DecisionCache, InsertLookup) {
  decision_cache cache(16);
  const cache_key k{1, 2, 3};
  EXPECT_FALSE(cache.lookup(k).has_value());
  cache.insert(k, decision::forward_to(99));
  const auto d = cache.lookup(k);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->kind, decision::verdict::forward);
  EXPECT_EQ(d->next_hops, hop_list{99});
}

TEST(DecisionCache, KeyComponentsAllMatter) {
  decision_cache cache(16);
  cache.insert({1, 2, 3}, decision::deliver());
  EXPECT_FALSE(cache.lookup({9, 2, 3}).has_value());  // different L3 src
  EXPECT_FALSE(cache.lookup({1, 9, 3}).has_value());  // different service
  EXPECT_FALSE(cache.lookup({1, 2, 9}).has_value());  // different connection
  EXPECT_TRUE(cache.lookup({1, 2, 3}).has_value());
}

TEST(DecisionCache, ReplaceExistingEntry) {
  decision_cache cache(16);
  const cache_key k{1, 2, 3};
  cache.insert(k, decision::forward_to(5));
  cache.insert(k, decision::drop_packet());
  EXPECT_EQ(cache.lookup(k)->kind, decision::verdict::drop);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(DecisionCache, LruEvictionAtCapacity) {
  decision_cache cache(3);
  cache.insert(key_of(1), decision::deliver());
  cache.insert(key_of(2), decision::deliver());
  cache.insert(key_of(3), decision::deliver());
  // Touch 1 so 2 becomes LRU.
  cache.lookup(key_of(1));
  cache.insert(key_of(4), decision::deliver());
  EXPECT_TRUE(cache.contains(key_of(1)));
  EXPECT_FALSE(cache.contains(key_of(2)));
  EXPECT_TRUE(cache.contains(key_of(3)));
  EXPECT_TRUE(cache.contains(key_of(4)));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(DecisionCache, HitCountApi) {
  // Appendix B: services can retrieve an entry's hit count to decide
  // whether a connection is still active.
  decision_cache cache(16);
  const cache_key k{1, 2, 3};
  cache.insert(k, decision::deliver());
  EXPECT_EQ(cache.hit_count(k), 0u);
  cache.lookup(k);
  cache.lookup(k);
  EXPECT_EQ(cache.hit_count(k), 2u);
  EXPECT_EQ(cache.hit_count({9, 9, 9}), 0u);
}

TEST(DecisionCache, ContainsHasNoSideEffects) {
  decision_cache cache(16);
  const cache_key k{1, 2, 3};
  cache.insert(k, decision::deliver());
  cache.contains(k);
  EXPECT_EQ(cache.hit_count(k), 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(DecisionCache, EraseConnectionDropsAllSources) {
  decision_cache cache(16);
  cache.insert({1, 7, 100}, decision::deliver());
  cache.insert({2, 7, 100}, decision::deliver());
  cache.insert({1, 7, 200}, decision::deliver());
  EXPECT_EQ(cache.erase_connection(7, 100), 2u);
  EXPECT_FALSE(cache.contains({1, 7, 100}));
  EXPECT_FALSE(cache.contains({2, 7, 100}));
  EXPECT_TRUE(cache.contains({1, 7, 200}));
}

TEST(DecisionCache, EraseService) {
  decision_cache cache(16);
  cache.insert({1, 7, 1}, decision::deliver());
  cache.insert({1, 7, 2}, decision::deliver());
  cache.insert({1, 8, 1}, decision::deliver());
  EXPECT_EQ(cache.erase_service(7), 2u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(DecisionCache, EraseServiceAfterLruRecycling) {
  // The secondary index must follow entries recycled through the LRU at
  // capacity: the victim's slot moves to the incoming entry's service.
  decision_cache cache(4);
  for (std::uint64_t i = 0; i < 100; ++i) {
    cache.insert({i, static_cast<ilp::service_id>(i % 2 ? 7 : 8), i}, decision::deliver());
  }
  // Residents are the last four inserts: 96, 98 (svc 8) and 97, 99 (svc 7).
  EXPECT_EQ(cache.erase_service(7), 2u);
  EXPECT_EQ(cache.erase_service(7), 0u);
  EXPECT_EQ(cache.erase_service(8), 2u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().invalidations, 4u);
}

// Property: erase_service removes exactly the resident entries of that
// service, under arbitrary interleavings with insert/lookup/erase and LRU
// recycling (the secondary index and the LRU list must never diverge).
TEST(DecisionCache, ServiceIndexConsistentUnderChurn) {
  rng random(11);
  decision_cache cache(32);
  for (int op = 0; op < 3000; ++op) {
    const cache_key k = key_of(random.below(100));
    switch (random.below(4)) {
      case 0:
        cache.insert(k, decision::deliver());
        break;
      case 1:
        cache.lookup(k);
        break;
      case 2:
        cache.erase(k);
        break;
      case 3: {
        const auto svc = static_cast<ilp::service_id>(random.below(7));
        std::size_t resident = 0;
        for (std::uint64_t n = 0; n < 100; ++n) {
          const cache_key c = key_of(n);
          if (c.service == svc && cache.contains(c)) ++resident;
        }
        EXPECT_EQ(cache.erase_service(svc), resident);
        for (std::uint64_t n = 0; n < 100; ++n) {
          const cache_key c = key_of(n);
          if (c.service == svc) {
            EXPECT_FALSE(cache.contains(c));
          }
        }
        break;
      }
    }
    ASSERT_LE(cache.size(), 32u);
  }
}

TEST(DecisionCache, EraseConnectionLeavesOtherServicesAlone) {
  decision_cache cache(16);
  cache.insert({1, 7, 100}, decision::deliver());
  cache.insert({1, 8, 100}, decision::deliver());  // same connection, other service
  EXPECT_EQ(cache.erase_connection(7, 100), 1u);
  EXPECT_TRUE(cache.contains({1, 8, 100}));
}

TEST(DecisionCache, StatsTrackHitsAndMisses) {
  decision_cache cache(16);
  cache.lookup({1, 1, 1});
  cache.insert({1, 1, 1}, decision::deliver());
  cache.lookup({1, 1, 1});
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().inserts, 1u);
}

TEST(DecisionCache, ClearEmptiesCache) {
  decision_cache cache(16);
  for (std::uint64_t i = 0; i < 10; ++i) cache.insert(key_of(i), decision::deliver());
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.contains(key_of(5)));
}

TEST(DecisionCache, ZeroCapacityClampsToOne) {
  decision_cache cache(0);
  cache.insert({1, 1, 1}, decision::deliver());
  EXPECT_EQ(cache.size(), 1u);
  cache.insert({2, 2, 2}, decision::deliver());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(DecisionCache, MulticastStyleMultiHopDecision) {
  decision_cache cache(16);
  cache.insert({1, 4, 9}, decision::forward_all({10, 11, 12}));
  const auto d = cache.lookup({1, 4, 9});
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->next_hops.size(), 3u);
}

TEST(Decision, ForwardAllRejectsMoreThanMaxNextHops) {
  EXPECT_EQ(decision::forward_all({1, 2, 3, 4}).next_hops.size(), kMaxNextHops);
  EXPECT_THROW(decision::forward_all({1, 2, 3, 4, 5}), std::invalid_argument);
}

// Property: under arbitrary interleavings of insert/lookup/erase, the
// cache never exceeds capacity and lookup only returns inserted values.
TEST(DecisionCache, RandomizedInvariants) {
  rng random(5);
  decision_cache cache(32);
  std::map<std::tuple<peer_id, ilp::service_id, ilp::connection_id>, decision> model;

  for (int op = 0; op < 5000; ++op) {
    const cache_key k = key_of(random.below(100));
    const auto mk = std::make_tuple(k.l3_src, k.service, k.connection);
    switch (random.below(3)) {
      case 0: {
        decision d = decision::forward_to(random.below(1000));
        cache.insert(k, d);
        model[mk] = d;
        break;
      }
      case 1: {
        const auto got = cache.lookup(k);
        if (got) {
          // Anything the cache returns must match the latest insert.
          ASSERT_TRUE(model.count(mk));
          EXPECT_EQ(*got, model[mk]);
        }
        break;
      }
      case 2:
        cache.erase(k);
        model.erase(mk);
        break;
    }
    ASSERT_LE(cache.size(), 32u);
  }
}

// Property: arbitrary eviction is always safe — after filling far past
// capacity, every lookup either misses (fall back to slow path) or
// returns the correct decision.
TEST(DecisionCache, EvictionNeverCorrupts) {
  decision_cache cache(8);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    cache.insert(key_of(i), decision::forward_to(i));
  }
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const auto d = cache.lookup(key_of(i));
    if (d) {
      EXPECT_EQ(d->next_hops, hop_list{i});
    }
  }
}

// ---- per-entry TTL (DESIGN.md §10) ------------------------------------

TEST(DecisionCache, TtlEntryExpiresOnLookup) {
  using namespace std::chrono_literals;
  manual_clock clk;
  decision_cache cache(16);
  cache.set_clock(&clk);
  decision d = decision::deliver();
  d.ttl = 10ms;
  cache.insert({1, 2, 3}, d);
  clk.advance(9ms);
  EXPECT_TRUE(cache.lookup({1, 2, 3}).has_value());
  clk.advance(2ms);
  EXPECT_FALSE(cache.lookup({1, 2, 3}).has_value());
  EXPECT_EQ(cache.stats().expired, 1u);
  EXPECT_EQ(cache.size(), 0u);  // expired entry is erased, not just hidden
}

TEST(DecisionCache, ZeroTtlMeansNoExpiry) {
  using namespace std::chrono_literals;
  manual_clock clk;
  decision_cache cache(16);
  cache.set_clock(&clk);
  cache.insert({1, 2, 3}, decision::deliver());  // ttl = 0
  clk.advance(std::chrono::hours(24));
  EXPECT_TRUE(cache.lookup({1, 2, 3}).has_value());
  EXPECT_EQ(cache.stats().expired, 0u);
}

TEST(DecisionCache, TtlIgnoredWithoutClock) {
  using namespace std::chrono_literals;
  decision_cache cache(16);
  decision d = decision::deliver();
  d.ttl = 1ns;
  cache.insert({1, 2, 3}, d);
  EXPECT_TRUE(cache.lookup({1, 2, 3}).has_value());
}

TEST(DecisionCache, ContainsAndHitCountTreatExpiredAsAbsent) {
  using namespace std::chrono_literals;
  manual_clock clk;
  decision_cache cache(16);
  cache.set_clock(&clk);
  decision d = decision::deliver();
  d.ttl = 5ms;
  cache.insert({1, 2, 3}, d);
  cache.lookup({1, 2, 3});
  clk.advance(6ms);
  EXPECT_FALSE(cache.contains({1, 2, 3}));
  EXPECT_EQ(cache.hit_count({1, 2, 3}), 0u);
}

TEST(DecisionCache, PurgeExpiredSweeps) {
  using namespace std::chrono_literals;
  manual_clock clk;
  decision_cache cache(16);
  cache.set_clock(&clk);
  decision short_lived = decision::deliver();
  short_lived.ttl = 5ms;
  decision long_lived = decision::deliver();
  long_lived.ttl = 50ms;
  cache.insert({1, 1, 1}, short_lived);
  cache.insert({2, 2, 2}, short_lived);
  cache.insert({3, 3, 3}, long_lived);
  cache.insert({4, 4, 4}, decision::deliver());
  clk.advance(10ms);
  EXPECT_EQ(cache.purge_expired(), 2u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().expired, 2u);
  EXPECT_TRUE(cache.contains({3, 3, 3}));
  EXPECT_TRUE(cache.contains({4, 4, 4}));
}

TEST(DecisionCache, ReinsertRefreshesTtl) {
  using namespace std::chrono_literals;
  manual_clock clk;
  decision_cache cache(16);
  cache.set_clock(&clk);
  decision d = decision::deliver();
  d.ttl = 10ms;
  cache.insert({1, 2, 3}, d);
  clk.advance(8ms);
  cache.insert({1, 2, 3}, d);  // refresh
  clk.advance(8ms);
  EXPECT_TRUE(cache.lookup({1, 2, 3}).has_value());  // 16ms total, 8ms since refresh
}

// ---- snapshot / restore_warm (checkpointed failover) -------------------

TEST(DecisionCache, SnapshotRestoreRoundTrip) {
  using namespace std::chrono_literals;
  manual_clock clk;
  decision_cache cache(16);
  cache.set_clock(&clk);
  cache.insert({1, 2, 3}, decision::forward_to(42));
  cache.insert({4, 5, 6}, decision::forward_all({7, 8}));
  cache.insert({7, 8, 9}, decision::drop_packet());
  cache.lookup({1, 2, 3});
  cache.lookup({1, 2, 3});

  const bytes snap = cache.snapshot(clk.now());

  decision_cache standby(16);
  standby.set_clock(&clk);
  EXPECT_EQ(standby.restore_warm(snap, clk.now()), 3u);
  EXPECT_EQ(standby.size(), 3u);
  EXPECT_EQ(standby.hit_count({1, 2, 3}), 2u);
  const auto d = standby.lookup({4, 5, 6});
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->kind, decision::verdict::forward);
  EXPECT_EQ(d->next_hops, (hop_list{7, 8}));
  EXPECT_EQ(standby.lookup({7, 8, 9})->kind, decision::verdict::drop);
}

// A snapshot entry with more next hops than a decision holds is malformed
// input: restore_warm throws serial_error.
TEST(DecisionCache, RestoreWarmRejectsMoreThanMaxNextHops) {
  writer w;
  w.u8(1);      // snapshot format version
  w.varint(1);  // one entry
  w.u64(1);     // l3_src
  w.u32(2);     // service
  w.u64(3);     // connection
  w.u64(0);     // hits
  w.u64(0);     // remaining ttl
  w.u8(static_cast<std::uint8_t>(decision::verdict::forward));
  w.varint(kMaxNextHops + 1);
  for (std::size_t i = 0; i <= kMaxNextHops; ++i) w.u64(10 + i);
  decision_cache standby(16);
  EXPECT_THROW(standby.restore_warm(w.data(), time_point{}), serial_error);
  EXPECT_EQ(standby.size(), 0u);
}

TEST(DecisionCache, SnapshotCarriesRemainingTtl) {
  using namespace std::chrono_literals;
  manual_clock clk;
  decision_cache cache(16);
  cache.set_clock(&clk);
  decision d = decision::deliver();
  d.ttl = 20ms;
  cache.insert({1, 2, 3}, d);
  clk.advance(15ms);  // 5ms of life left

  const bytes snap = cache.snapshot(clk.now());
  decision_cache standby(16);
  standby.set_clock(&clk);
  standby.restore_warm(snap, clk.now());
  EXPECT_TRUE(standby.lookup({1, 2, 3}).has_value());
  clk.advance(6ms);  // past the remaining 5ms
  EXPECT_FALSE(standby.lookup({1, 2, 3}).has_value());
}

TEST(DecisionCache, SnapshotSkipsExpiredEntries) {
  using namespace std::chrono_literals;
  manual_clock clk;
  decision_cache cache(16);
  cache.set_clock(&clk);
  decision d = decision::deliver();
  d.ttl = 5ms;
  cache.insert({1, 1, 1}, d);
  cache.insert({2, 2, 2}, decision::deliver());
  clk.advance(10ms);

  const bytes snap = cache.snapshot(clk.now());
  decision_cache standby(16);
  standby.set_clock(&clk);
  EXPECT_EQ(standby.restore_warm(snap, clk.now()), 1u);
  EXPECT_TRUE(standby.contains({2, 2, 2}));
  EXPECT_FALSE(standby.contains({1, 1, 1}));
}

TEST(DecisionCache, RestoreIntoSmallerCacheKeepsHotEntries) {
  using namespace std::chrono_literals;
  manual_clock clk;
  decision_cache cache(16);
  cache.set_clock(&clk);
  for (std::uint64_t i = 0; i < 8; ++i) cache.insert(key_of(i), decision::deliver());
  const bytes snap = cache.snapshot(clk.now());

  // Restored cache enforces its own (smaller) capacity; the warm entries
  // arrive LRU-first so the hottest survive.
  decision_cache standby(4);
  standby.set_clock(&clk);
  standby.restore_warm(snap, clk.now());
  EXPECT_EQ(standby.size(), 4u);
  // The most recently used originals (highest i) are the residents.
  EXPECT_TRUE(standby.contains(key_of(7)));
  EXPECT_TRUE(standby.contains(key_of(4)));
  EXPECT_FALSE(standby.contains(key_of(0)));
}

TEST(DecisionCache, RestoreRejectsGarbage) {
  manual_clock clk;
  decision_cache cache(16);
  cache.set_clock(&clk);
  EXPECT_THROW(cache.restore_warm(to_bytes("not a snapshot"), clk.now()), serial_error);
}

}  // namespace
}  // namespace interedge::core
