// The list-LRU decision cache the flat table replaced, kept as the
// specification of its behaviour: a std::list in recency order, an
// unordered_map index hashed with SipHash over the packed key bytes, and
// per-service lists of iterators. decision_cache_diff_test drives it and
// decision_cache with the same operations and compares every result.
#pragma once

#include <list>
#include <optional>
#include <unordered_map>

#include "core/decision_cache.h"

namespace interedge::core::testing {

class reference_decision_cache {
 public:
  explicit reference_decision_cache(std::size_t capacity, std::uint64_t hash_seed = 0);

  void set_clock(const clock* clk) { clock_ = clk; }
  std::optional<decision> lookup(const cache_key& key);
  bool contains(const cache_key& key) const;
  void insert(const cache_key& key, decision d);
  bool erase(const cache_key& key);
  std::size_t erase_connection(ilp::service_id service, ilp::connection_id connection);
  std::size_t erase_service(ilp::service_id service);
  std::size_t erase_forwards_to(peer_id hop);
  void clear();
  std::size_t purge_expired();
  bytes snapshot(time_point now) const;
  std::size_t restore_warm(const_byte_span data, time_point now);
  std::uint64_t hit_count(const cache_key& key) const;

  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }
  const cache_stats& stats() const { return stats_; }

 private:
  struct entry;
  using lru_list = std::list<entry>;
  using svc_bucket = std::list<lru_list::iterator>;
  struct entry {
    cache_key key;
    decision value;
    std::uint64_t hits = 0;
    time_point expires = time_point::max();  // max() = no TTL
    svc_bucket::iterator svc_it{};
  };
  // SipHash-2-4 over the 20 packed key bytes, through the byte-wise
  // reference implementation.
  struct key_hash {
    crypto::siphash_key seed;
    std::size_t operator()(const cache_key& k) const;
  };

  void svc_index_add(lru_list::iterator it);
  void svc_index_remove(lru_list::iterator it);
  bool expired_at(const entry& e, time_point now) const {
    return e.expires != time_point::max() && now >= e.expires;
  }

  lru_list entries_;  // front = most recent
  std::unordered_map<cache_key, lru_list::iterator, key_hash> index_;
  std::unordered_map<ilp::service_id, svc_bucket> by_service_;
  std::size_t capacity_;
  const clock* clock_ = nullptr;
  cache_stats stats_;
};

}  // namespace interedge::core::testing
