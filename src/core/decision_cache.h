// The pipe-terminus decision cache (paper §4 and Appendix B).
//
// Match-action entries keyed by (L3 source, service ID, connection ID).
// Implementations "can arbitrarily evict entries, even when the connections
// they are associated with are active" — correctness never depends on an
// entry being present, because a miss falls back to the service module.
// This implementation evicts least-recently-used entries at capacity.
//
// Appendix B also requires an API "that services can use to determine
// whether or not a decision cache entry has been recently used" by
// "retrieving the hit-count for an entry" — see hit_count().
//
// The hash is SipHash-keyed so an adversary choosing connection IDs cannot
// force pathological collisions. The same keyed hash drives flow_steerer,
// which assigns flows to worker shards in the multi-core datapath — one
// flow's packets always land on one shard (DESIGN.md §9).
//
// Layout: one flat table sized at construction (DESIGN.md §17). Entries
// live in a node array threaded by u32 links into the LRU list, a free
// list and one list per service; a linear-probe index of node numbers at
// most half full finds them. Each node keeps its key's hash, so a hit
// hashes once, a miss plus its insert twice, and evictions, erases and
// purges never hash at all.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/clock.h"
#include "common/flat_hash.h"
#include "common/ring.h"
#include "core/packet.h"
#include "crypto/siphash.h"

namespace interedge::core {

// The keyed-hash key shared by the decision cache and the flow steerer,
// derived from a 64-bit seed (sn_config.cache_hash_seed).
crypto::siphash_key cache_hash_key(std::uint64_t seed);

// SipHash-2-4 of the 20 packed little-endian bytes (l3_src, service,
// connection), computed from three words: the bytes are never assembled.
inline std::uint64_t cache_key_hash(const crypto::siphash_key_words& k, const cache_key& key) {
  return crypto::siphash24_words(k, key.l3_src,
                                 static_cast<std::uint64_t>(key.service) | (key.connection << 32),
                                 (key.connection >> 32) | (std::uint64_t{20} << 56));
}

struct cache_stats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t expired = 0;  // TTL lapses (counted as misses too on lookup)
};

class decision_cache {
 public:
  explicit decision_cache(std::size_t capacity, std::uint64_t hash_seed = 0);
  ~decision_cache();
  decision_cache(const decision_cache&) = delete;
  decision_cache& operator=(const decision_cache&) = delete;

  // Arms per-entry TTLs: inserts whose decision carries ttl > 0 expire
  // that long after insertion. Without a clock TTLs are ignored and
  // entries live until LRU eviction/invalidation, as before. The clock
  // must outlive the cache; a worker shard may read it while another
  // thread advances it (manual_clock is atomic). Only entries with a TTL
  // make a lookup read it.
  void set_clock(const clock* clk) { clock_ = clk; }

  // Looks up a decision; bumps recency and the entry's hit count. An
  // expired entry is erased and reported as a miss (stats().expired).
  std::optional<decision> lookup(const cache_key& key);
  // Read-only probe: no recency/hit-count side effects.
  bool contains(const cache_key& key) const;

  // Inserts or replaces. Evicts the LRU entry at capacity.
  void insert(const cache_key& key, decision d);

  // Targeted invalidation.
  bool erase(const cache_key& key);
  // Drops every entry for (service, connection) regardless of L3 source —
  // used when a service tears down a connection. O(entries of that
  // service) via the per-service lists, not O(cache size).
  std::size_t erase_connection(ilp::service_id service, ilp::connection_id connection);
  // Drops every entry installed by a service (service reconfiguration).
  std::size_t erase_service(ilp::service_id service);
  // Drops every forward verdict that names `hop` as a next hop — called
  // when liveness declares a peer down, so flows re-resolve on the slow
  // path instead of blackholing into the dead adjacency. O(cache size):
  // peer-down is a rare control event, not a packet-path operation.
  std::size_t erase_forwards_to(peer_id hop);
  void clear();

  // Sweeps all expired entries now (checkpoint hygiene); returns the
  // number removed. No-op without a clock.
  std::size_t purge_expired();

  // Warm-state snapshot for checkpointed failover: entries serialized
  // LRU-first so a restore replays them as inserts and reproduces the
  // same recency order; TTLs are stored as remaining time relative to
  // `now`, hit counts ride along (Appendix B queries survive failover).
  // Entries already expired at `now` are omitted.
  bytes snapshot(time_point now) const;
  // Replays a snapshot into this cache (keeping this cache's capacity —
  // overflow evicts LRU as usual). Returns entries restored. Throws
  // interedge::serial_error on malformed input.
  std::size_t restore_warm(const_byte_span data, time_point now);

  // Appendix B hit-count API. 0 if the entry is not resident.
  std::uint64_t hit_count(const cache_key& key) const;

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  const cache_stats& stats() const { return stats_; }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct node {
    std::uint64_t hash = 0;
    cache_key key;
    decision value;
    std::uint64_t hits = 0;
    time_point expires = time_point::max();  // max() = no TTL
    std::uint32_t prev = kNil;  // LRU list: prev is more recent; next also links the free list
    std::uint32_t next = kNil;
    std::uint32_t svc_prev = kNil;  // the list of key.service's entries
    std::uint32_t svc_next = kNil;
  };

  bool expired_at(const node& n, time_point now) const {
    return n.expires != time_point::max() && now >= n.expires;
  }
  // Reads the clock only for an entry that carries a TTL.
  bool expired_now(const node& n) const {
    return clock_ != nullptr && n.expires != time_point::max() && clock_->now() >= n.expires;
  }
  std::uint32_t find(const cache_key& key, std::uint64_t hash) const;
  std::uint32_t insert_hashed(const cache_key& key, std::uint64_t hash, decision d);
  // A node for a new entry: a freed one, then one never used, then the LRU
  // entry (an eviction).
  std::uint32_t acquire();
  void remove(std::uint32_t n);  // unlinks n everywhere and frees it
  void index_add(std::uint32_t n);
  void index_remove(std::uint32_t n);
  void lru_unlink(std::uint32_t n);
  void lru_push_front(std::uint32_t n);
  void lru_bump(std::uint32_t n);  // makes n the most recent
  void svc_link(std::uint32_t n);
  void svc_unlink(std::uint32_t n);

  std::size_t capacity_;
  crypto::siphash_key_words hash_key_;
  // Raw storage for capacity_ nodes: a node is first written when first
  // used, so an idle cache touches none of it.
  node* nodes_ = nullptr;
  std::uint32_t used_ = 0;  // nodes [0, used_) have been written
  std::uint32_t free_ = kNil;
  std::uint32_t head_ = kNil;  // most recent
  std::uint32_t tail_ = kNil;  // least recent: the next victim
  std::size_t size_ = 0;
  // Linear-probe index at most half full: node number + 1, 0 = empty.
  std::unique_ptr<std::uint32_t[]> index_;
  std::size_t index_mask_ = 0;
  flat_hash64<std::uint32_t> svc_heads_;  // service -> first node of its list
  const clock* clock_ = nullptr;
  cache_stats stats_;
};

// RSS-style flow steering for the multi-core datapath: maps a packet's
// cache key to one of N worker shards with the same SipHash family the
// decision cache keys on. Deterministic for a fixed seed (a flow lands on
// the same shard across restarts) and adversarially unpredictable (an
// attacker choosing connection IDs cannot aim all flows at one shard).
class flow_steerer {
 public:
  flow_steerer(std::uint64_t seed, std::size_t shards)
      : key_(crypto::load_key(cache_hash_key(seed))), shards_(shards == 0 ? 1 : shards) {}

  std::size_t shard_of(const cache_key& key) const {
    return static_cast<std::size_t>(cache_key_hash(key_, key) % shards_);
  }
  std::size_t shards() const { return shards_; }

 private:
  crypto::siphash_key_words key_;
  std::size_t shards_;
};

// A cache invalidation to fan out to every shard. erase_next_hop carries
// the dead peer in `hop` (liveness peer-down purging stale forwards).
enum class cache_op : std::uint8_t { erase_connection, erase_service, erase_next_hop, clear };
struct cache_command {
  cache_op op = cache_op::clear;
  ilp::service_id service = 0;
  ilp::connection_id connection = 0;
  peer_id hop = 0;
  std::uint64_t seq = 0;  // stamped by the bus
};

// Shard-aware invalidation fan-out. Services invalidate from the slow
// path (control thread); each worker shard owns a private decision cache
// it alone touches. The bus carries commands over per-shard SPSC rings:
// publish() runs on the control thread, drain() on each worker at batch
// boundaries — the caches themselves are never shared, so the whole
// scheme is lock-free by construction. Sequence epochs let an idle check
// confirm every shard has applied every published command.
class cache_invalidation_bus {
 public:
  explicit cache_invalidation_bus(std::size_t shards, std::size_t depth = 1024);

  // Control side: stamps and fans the command out to every shard. Spins
  // while a shard's ring is momentarily full (workers drain every loop
  // iteration, so the wait is bounded).
  void publish(cache_command cmd);

  // Worker side: applies every pending command to the shard's cache.
  // Returns the number applied.
  std::size_t drain(std::size_t shard, decision_cache& cache);

  std::uint64_t published() const { return published_.load(std::memory_order_acquire); }
  std::uint64_t applied(std::size_t shard) const {
    return lanes_[shard]->applied.load(std::memory_order_acquire);
  }
  // True when every shard has applied every published command.
  bool quiesced() const;

  std::size_t shards() const { return lanes_.size(); }

 private:
  struct lane {
    explicit lane(std::size_t depth) : ring(depth) {}
    spsc_ring<cache_command> ring;
    alignas(64) std::atomic<std::uint64_t> applied{0};
  };
  std::atomic<std::uint64_t> published_{0};
  std::vector<std::unique_ptr<lane>> lanes_;
};

}  // namespace interedge::core
