#include "core/reference_decision_cache.h"

#include <algorithm>

#include "common/serial.h"

namespace interedge::core::testing {

std::size_t reference_decision_cache::key_hash::operator()(const cache_key& key) const {
  std::uint8_t packed[8 + 4 + 8];
  for (int i = 0; i < 8; ++i) packed[i] = static_cast<std::uint8_t>(key.l3_src >> (8 * i));
  for (int i = 0; i < 4; ++i) packed[8 + i] = static_cast<std::uint8_t>(key.service >> (8 * i));
  for (int i = 0; i < 8; ++i) {
    packed[12 + i] = static_cast<std::uint8_t>(key.connection >> (8 * i));
  }
  return static_cast<std::size_t>(crypto::siphash24(seed, const_byte_span(packed, sizeof(packed))));
}

reference_decision_cache::reference_decision_cache(std::size_t capacity,
                                                   std::uint64_t hash_seed)
    : index_(16, key_hash{cache_hash_key(hash_seed)}), capacity_(capacity == 0 ? 1 : capacity) {
  index_.reserve(capacity_);
}

void reference_decision_cache::svc_index_add(lru_list::iterator it) {
  svc_bucket& bucket = by_service_[it->key.service];
  bucket.push_front(it);
  it->svc_it = bucket.begin();
}

void reference_decision_cache::svc_index_remove(lru_list::iterator it) {
  auto bit = by_service_.find(it->key.service);
  bit->second.erase(it->svc_it);
  if (bit->second.empty()) by_service_.erase(bit);
}

std::optional<decision> reference_decision_cache::lookup(const cache_key& key) {
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  if (clock_ && expired_at(*it->second, clock_->now())) {
    svc_index_remove(it->second);
    entries_.erase(it->second);
    index_.erase(it);
    ++stats_.expired;
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  ++it->second->hits;
  entries_.splice(entries_.begin(), entries_, it->second);  // bump recency
  return it->second->value;
}

bool reference_decision_cache::contains(const cache_key& key) const {
  auto it = index_.find(key);
  if (it == index_.end()) return false;
  return !(clock_ && expired_at(*it->second, clock_->now()));
}

void reference_decision_cache::insert(const cache_key& key, decision d) {
  const time_point expires =
      (clock_ && d.ttl.count() > 0) ? clock_->now() + d.ttl : time_point::max();
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->value = std::move(d);
    it->second->expires = expires;
    entries_.splice(entries_.begin(), entries_, it->second);
    ++stats_.inserts;
    return;
  }
  if (entries_.size() >= capacity_) {
    // Recycle the LRU node in place instead of pop+push: an insert at
    // capacity (the steady state) performs no list-node allocation. The
    // victim may belong to a different service, so its secondary-index
    // slot moves too.
    auto victim = std::prev(entries_.end());
    svc_index_remove(victim);
    index_.erase(victim->key);
    victim->key = key;
    victim->value = std::move(d);
    victim->hits = 0;
    victim->expires = expires;
    entries_.splice(entries_.begin(), entries_, victim);
    index_[key] = entries_.begin();
    svc_index_add(entries_.begin());
    ++stats_.evictions;
    ++stats_.inserts;
    return;
  }
  entries_.push_front(entry{key, std::move(d), 0, expires, {}});
  index_[key] = entries_.begin();
  svc_index_add(entries_.begin());
  ++stats_.inserts;
}

bool reference_decision_cache::erase(const cache_key& key) {
  auto it = index_.find(key);
  if (it == index_.end()) return false;
  svc_index_remove(it->second);
  entries_.erase(it->second);
  index_.erase(it);
  ++stats_.invalidations;
  return true;
}

std::size_t reference_decision_cache::erase_connection(ilp::service_id service,
                                             ilp::connection_id connection) {
  auto bit = by_service_.find(service);
  if (bit == by_service_.end()) return 0;
  std::size_t erased = 0;
  svc_bucket& bucket = bit->second;
  for (auto sit = bucket.begin(); sit != bucket.end();) {
    const lru_list::iterator lit = *sit;
    if (lit->key.connection == connection) {
      index_.erase(lit->key);
      entries_.erase(lit);
      sit = bucket.erase(sit);
      ++erased;
    } else {
      ++sit;
    }
  }
  if (bucket.empty()) by_service_.erase(bit);
  stats_.invalidations += erased;
  return erased;
}

std::size_t reference_decision_cache::erase_service(ilp::service_id service) {
  auto bit = by_service_.find(service);
  if (bit == by_service_.end()) return 0;
  std::size_t erased = 0;
  for (const lru_list::iterator lit : bit->second) {
    index_.erase(lit->key);
    entries_.erase(lit);
    ++erased;
  }
  by_service_.erase(bit);
  stats_.invalidations += erased;
  return erased;
}

std::size_t reference_decision_cache::erase_forwards_to(peer_id hop) {
  std::size_t erased = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    const bool names_hop =
        it->value.kind == decision::verdict::forward &&
        std::find(it->value.next_hops.begin(), it->value.next_hops.end(), hop) !=
            it->value.next_hops.end();
    if (names_hop) {
      svc_index_remove(it);
      index_.erase(it->key);
      it = entries_.erase(it);
      ++erased;
    } else {
      ++it;
    }
  }
  stats_.invalidations += erased;
  return erased;
}

void reference_decision_cache::clear() {
  stats_.invalidations += entries_.size();
  entries_.clear();
  index_.clear();
  by_service_.clear();
}

std::uint64_t reference_decision_cache::hit_count(const cache_key& key) const {
  auto it = index_.find(key);
  if (it == index_.end()) return 0;
  if (clock_ && expired_at(*it->second, clock_->now())) return 0;
  return it->second->hits;
}

std::size_t reference_decision_cache::purge_expired() {
  if (!clock_) return 0;
  const time_point now = clock_->now();
  std::size_t purged = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (expired_at(*it, now)) {
      svc_index_remove(it);
      index_.erase(it->key);
      it = entries_.erase(it);
      ++purged;
    } else {
      ++it;
    }
  }
  stats_.expired += purged;
  return purged;
}

bytes reference_decision_cache::snapshot(time_point now) const {
  writer w;
  w.u8(1);  // snapshot format version
  // Count live entries first (expired ones are omitted).
  std::uint64_t live = 0;
  for (const entry& e : entries_) {
    if (!expired_at(e, now)) ++live;
  }
  w.varint(live);
  // LRU-first so restore's inserts replay recency in order and the MRU
  // entry lands at the front again.
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    const entry& e = *it;
    if (expired_at(e, now)) continue;
    w.u64(e.key.l3_src);
    w.u32(e.key.service);
    w.u64(e.key.connection);
    w.u64(e.hits);
    const std::uint64_t remaining_ns =
        e.expires == time_point::max()
            ? 0
            : static_cast<std::uint64_t>((e.expires - now).count());
    w.u64(remaining_ns);
    w.u8(static_cast<std::uint8_t>(e.value.kind));
    w.varint(e.value.next_hops.size());
    for (const peer_id hop : e.value.next_hops) w.u64(hop);
  }
  return w.take();
}

std::size_t reference_decision_cache::restore_warm(const_byte_span data, time_point now) {
  reader r(data);
  const std::uint8_t version = r.u8();
  if (version != 1) throw serial_error("decision_cache snapshot: unknown version");
  const std::uint64_t count = r.varint();
  std::size_t restored = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    cache_key key;
    key.l3_src = r.u64();
    key.service = r.u32();
    key.connection = r.u64();
    const std::uint64_t hits = r.u64();
    const std::uint64_t remaining_ns = r.u64();
    decision d;
    d.kind = static_cast<decision::verdict>(r.u8());
    const std::uint64_t hop_count = r.varint();
    if (hop_count > kMaxNextHops) throw serial_error("decision_cache snapshot: too many next hops");
    for (std::uint64_t h = 0; h < hop_count; ++h) d.next_hops.push_back(r.u64());
    d.ttl = nanoseconds(static_cast<std::int64_t>(remaining_ns));
    insert(key, std::move(d));
    // insert() computes expires = now + remaining and zeroes the hit
    // count; re-apply the snapshot's count so Appendix B queries see the
    // pre-failover value.
    auto it = index_.find(key);
    if (it != index_.end()) it->second->hits = hits;
    ++restored;
  }
  (void)now;
  return restored;
}

}  // namespace interedge::core::testing
