// Differential test of the flat decision cache against the list-LRU cache
// it replaced (reference_decision_cache.h, the specification of the
// eviction order). Seeded random streams drive both with every public
// call, TTL inserts and manual-clock advances; after every operation the
// return values, stats() and size() must be identical, and so must the
// snapshot bytes (every op up to 64 entries, see run_differential).
//
// Also checks that the word-wise cache_key_hash equals SipHash-2-4 over
// the 20 packed key bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "common/clock.h"
#include "common/rng.h"
#include "core/decision_cache.h"
#include "core/reference_decision_cache.h"

namespace interedge::core {
namespace {

using testing::reference_decision_cache;

constexpr std::size_t kOps = 100000;

void expect_same_stats(const cache_stats& a, const cache_stats& b) {
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.inserts, b.inserts);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.invalidations, b.invalidations);
  EXPECT_EQ(a.expired, b.expired);
}

class stream {
 public:
  stream(std::size_t capacity, std::uint64_t seed)
      : random_(seed), connections_(capacity / 4 + 2) {}

  // About 4 x capacity distinct keys over 4 sources and 4 services, so
  // the stream both hits and evicts.
  cache_key key() {
    return cache_key{random_.below(4) + 1, static_cast<ilp::service_id>(random_.below(4)),
                     random_.below(connections_)};
  }
  peer_id hop() { return random_.below(6) + 1; }
  decision verdict(bool with_ttl) {
    decision d;
    d.kind = static_cast<decision::verdict>(random_.below(3));
    if (d.kind == decision::verdict::forward) {
      const std::uint64_t hops = random_.below(kMaxNextHops) + 1;
      for (std::uint64_t i = 0; i < hops; ++i) d.next_hops.push_back(hop());
    }
    if (with_ttl && random_.chance(0.3)) {
      d.ttl = nanoseconds(static_cast<std::int64_t>(random_.below(2000) + 1));
    }
    return d;
  }
  std::uint64_t below(std::uint64_t n) { return random_.below(n); }

 private:
  rng random_;
  std::uint64_t connections_;
};

// Runs kOps random operations against both caches. With `timed`, both
// share a manual clock, TTL inserts happen and the clock moves.
void run_differential(std::size_t capacity, std::uint64_t seed, bool timed) {
  SCOPED_TRACE("capacity " + std::to_string(capacity) + " seed " + std::to_string(seed) +
               (timed ? " timed" : " untimed"));
  manual_clock clk;
  clk.advance(nanoseconds(1000000));
  decision_cache flat(capacity, seed);
  reference_decision_cache ref(capacity, seed);
  if (timed) {
    flat.set_clock(&clk);
    ref.set_clock(&clk);
  }
  stream s(capacity, seed);

  // Calls that drop many entries at once come every bulk_every ops, and
  // clear() once, so the large caches still fill up between them.
  const std::size_t bulk_every = std::max<std::size_t>(50, capacity);
  // A snapshot serializes every entry, so past 64 entries the snapshots
  // are compared every capacity / 64 ops and after every bulk call; an
  // order that drifted in between shows in the next one, and in the
  // lookups, since the two caches would evict different keys.
  const std::size_t snapshot_every = std::max<std::size_t>(1, capacity / 64);
  for (std::size_t op = 0; op < kOps; ++op) {
    const std::uint64_t pick = op == kOps / 2                     ? 1003
                               : op % bulk_every == bulk_every - 1 ? 1000 + s.below(3)
                                                                   : s.below(1000);
    if (pick < 300) {
      const cache_key k = s.key();
      ASSERT_EQ(flat.lookup(k), ref.lookup(k)) << "op " << op;
    } else if (pick < 640) {
      const cache_key k = s.key();
      const decision d = s.verdict(timed);
      flat.insert(k, d);
      ref.insert(k, d);
    } else if (pick < 690) {
      const cache_key k = s.key();
      ASSERT_EQ(flat.contains(k), ref.contains(k)) << "op " << op;
    } else if (pick < 740) {
      const cache_key k = s.key();
      ASSERT_EQ(flat.hit_count(k), ref.hit_count(k)) << "op " << op;
    } else if (pick < 790) {
      const cache_key k = s.key();
      ASSERT_EQ(flat.erase(k), ref.erase(k)) << "op " << op;
    } else if (pick < 820) {
      const cache_key k = s.key();
      ASSERT_EQ(flat.erase_connection(k.service, k.connection),
                ref.erase_connection(k.service, k.connection))
          << "op " << op;
    } else if (pick < 830) {
      ASSERT_EQ(flat.purge_expired(), ref.purge_expired()) << "op " << op;
    } else if (pick < 1000) {
      clk.advance(nanoseconds(static_cast<std::int64_t>(s.below(100))));
    } else if (pick == 1000) {
      const auto service = static_cast<ilp::service_id>(s.below(5));
      ASSERT_EQ(flat.erase_service(service), ref.erase_service(service)) << "op " << op;
    } else if (pick == 1001) {
      const peer_id hop = s.hop();
      ASSERT_EQ(flat.erase_forwards_to(hop), ref.erase_forwards_to(hop)) << "op " << op;
    } else if (pick == 1002) {
      // A warm snapshot replayed into both, as a failover peer would.
      const bytes snap = ref.snapshot(clk.now());
      ASSERT_EQ(flat.restore_warm(snap, clk.now()), ref.restore_warm(snap, clk.now()))
          << "op " << op;
    } else {
      flat.clear();
      ref.clear();
    }
    ASSERT_EQ(flat.size(), ref.size()) << "op " << op;
    expect_same_stats(flat.stats(), ref.stats());
    if (op % snapshot_every == 0 || pick >= 1000) {
      ASSERT_EQ(flat.snapshot(clk.now()), ref.snapshot(clk.now())) << "op " << op;
    }
  }
  // The streams reached the states they exist for.
  EXPECT_GT(flat.stats().hits, 0u);
  EXPECT_GT(flat.stats().evictions, 0u);
  if (timed) {
    EXPECT_GT(flat.stats().expired, 0u);
  }
}

TEST(DecisionCacheDiff, Capacity1) {
  run_differential(1, 11, true);
  run_differential(1, 12, false);
}

TEST(DecisionCacheDiff, Capacity3) {
  run_differential(3, 21, true);
  run_differential(3, 22, false);
}

TEST(DecisionCacheDiff, Capacity64) {
  run_differential(64, 31, true);
  run_differential(64, 32, false);
}

TEST(DecisionCacheDiff, Capacity4096) {
  run_differential(4096, 41, true);
  run_differential(4096, 42, false);
}

// cache_key_hash builds SipHash's three message words straight from the
// key; the byte-wise reference hashes the packed (l3_src, service,
// connection) bytes.
TEST(CacheKeyHash, EqualsSipHashOfPackedKey) {
  for (const std::uint64_t seed : {0ull, 1ull, 0x9e3779b97f4a7c15ull, ~0ull}) {
    const crypto::siphash_key key = cache_hash_key(seed);
    const crypto::siphash_key_words words = crypto::load_key(key);
    rng random(seed ^ 0x5eed);
    for (int i = 0; i < 100000; ++i) {
      const cache_key k{random.next(), static_cast<ilp::service_id>(random.next()),
                        random.next()};
      std::uint8_t packed[20];
      for (int b = 0; b < 8; ++b) packed[b] = static_cast<std::uint8_t>(k.l3_src >> (8 * b));
      for (int b = 0; b < 4; ++b) packed[8 + b] = static_cast<std::uint8_t>(k.service >> (8 * b));
      for (int b = 0; b < 8; ++b) {
        packed[12 + b] = static_cast<std::uint8_t>(k.connection >> (8 * b));
      }
      ASSERT_EQ(cache_key_hash(words, k), crypto::siphash24(key, const_byte_span(packed, 20)))
          << "seed " << seed << " key " << i;
    }
  }
}

// flow_steerer keys on the same hash, so shard assignment is unchanged.
TEST(CacheKeyHash, SteererUsesTheCacheHash) {
  const flow_steerer steer(7, 5);
  const crypto::siphash_key_words words = crypto::load_key(cache_hash_key(7));
  rng random(3);
  for (int i = 0; i < 1000; ++i) {
    const cache_key k{random.next(), static_cast<ilp::service_id>(random.next()), random.next()};
    ASSERT_EQ(steer.shard_of(k), cache_key_hash(words, k) % 5);
  }
}

}  // namespace
}  // namespace interedge::core
