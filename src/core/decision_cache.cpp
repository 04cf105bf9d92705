#include "core/decision_cache.h"

#include <algorithm>
#include <stdexcept>
#include <type_traits>

#include "common/serial.h"

namespace interedge::core {

crypto::siphash_key cache_hash_key(std::uint64_t seed) {
  crypto::siphash_key k{};
  for (int i = 0; i < 8; ++i) {
    k[i] = static_cast<std::uint8_t>(seed >> (8 * i));
    k[8 + i] = static_cast<std::uint8_t>(~seed >> (8 * i));
  }
  return k;
}

decision_cache::decision_cache(std::size_t capacity, std::uint64_t hash_seed)
    : capacity_(capacity == 0 ? 1 : capacity),
      hash_key_(crypto::load_key(cache_hash_key(hash_seed))) {
  if (capacity_ >= kNil / 2) throw std::invalid_argument("decision_cache: capacity too large");
  static_assert(std::is_trivially_destructible_v<node>);
  nodes_ = std::allocator<node>().allocate(capacity_);
  std::size_t slots = 2;
  while (slots < 2 * capacity_) slots <<= 1;
  index_ = std::make_unique<std::uint32_t[]>(slots);
  index_mask_ = slots - 1;
}

decision_cache::~decision_cache() { std::allocator<node>().deallocate(nodes_, capacity_); }

std::uint32_t decision_cache::find(const cache_key& key, std::uint64_t hash) const {
  for (std::size_t i = hash & index_mask_;; i = (i + 1) & index_mask_) {
    const std::uint32_t slot = index_[i];
    if (slot == 0) return kNil;
    const node& n = nodes_[slot - 1];
    if (n.hash == hash && n.key == key) return slot - 1;
  }
}

void decision_cache::index_add(std::uint32_t n) {
  std::size_t i = nodes_[n].hash & index_mask_;
  while (index_[i] != 0) i = (i + 1) & index_mask_;
  index_[i] = n + 1;
}

void decision_cache::index_remove(std::uint32_t n) {
  std::size_t hole = nodes_[n].hash & index_mask_;
  while (index_[hole] != n + 1) hole = (hole + 1) & index_mask_;
  // Backward shift: a later member of the probe run moves into the hole
  // unless its home slot lies between the hole and itself.
  for (std::size_t j = (hole + 1) & index_mask_; index_[j] != 0; j = (j + 1) & index_mask_) {
    const std::size_t home = nodes_[index_[j] - 1].hash & index_mask_;
    if (((j - home) & index_mask_) >= ((j - hole) & index_mask_)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = 0;
}

void decision_cache::lru_unlink(std::uint32_t n) {
  node& e = nodes_[n];
  (e.prev == kNil ? head_ : nodes_[e.prev].next) = e.next;
  (e.next == kNil ? tail_ : nodes_[e.next].prev) = e.prev;
}

void decision_cache::lru_push_front(std::uint32_t n) {
  node& e = nodes_[n];
  e.prev = kNil;
  e.next = head_;
  (head_ == kNil ? tail_ : nodes_[head_].prev) = n;
  head_ = n;
}

void decision_cache::lru_bump(std::uint32_t n) {
  if (n == head_) return;
  lru_unlink(n);
  lru_push_front(n);
}

void decision_cache::svc_link(std::uint32_t n) {
  node& e = nodes_[n];
  e.svc_prev = kNil;
  std::uint32_t* head = svc_heads_.find(e.key.service);
  if (head == nullptr) {
    e.svc_next = kNil;
    svc_heads_.insert(e.key.service, n);
    return;
  }
  e.svc_next = *head;
  nodes_[*head].svc_prev = n;
  *head = n;
}

void decision_cache::svc_unlink(std::uint32_t n) {
  const node& e = nodes_[n];
  if (e.svc_next != kNil) nodes_[e.svc_next].svc_prev = e.svc_prev;
  if (e.svc_prev != kNil) {
    nodes_[e.svc_prev].svc_next = e.svc_next;
  } else if (e.svc_next == kNil) {
    svc_heads_.erase(e.key.service);  // the service's last entry
  } else {
    *svc_heads_.find(e.key.service) = e.svc_next;
  }
}

void decision_cache::remove(std::uint32_t n) {
  index_remove(n);
  lru_unlink(n);
  svc_unlink(n);
  nodes_[n].next = free_;
  free_ = n;
  --size_;
}

std::uint32_t decision_cache::acquire() {
  if (free_ == kNil && used_ == capacity_) {
    remove(tail_);  // at capacity: evict the LRU entry and reuse its node
    ++stats_.evictions;
  }
  if (free_ == kNil) {
    std::construct_at(nodes_ + used_);
    return used_++;
  }
  const std::uint32_t n = free_;
  free_ = nodes_[n].next;
  return n;
}

std::uint32_t decision_cache::insert_hashed(const cache_key& key, std::uint64_t hash,
                                            decision d) {
  const time_point expires =
      (clock_ && d.ttl.count() > 0) ? clock_->now() + d.ttl : time_point::max();
  ++stats_.inserts;
  std::uint32_t n = find(key, hash);
  if (n != kNil) {
    nodes_[n].value = d;
    nodes_[n].expires = expires;
    lru_bump(n);
    return n;
  }
  n = acquire();
  node& e = nodes_[n];
  e.hash = hash;
  e.key = key;
  e.value = d;
  e.hits = 0;
  e.expires = expires;
  index_add(n);
  lru_push_front(n);
  svc_link(n);
  ++size_;
  return n;
}

std::optional<decision> decision_cache::lookup(const cache_key& key) {
  const std::uint32_t n = find(key, cache_key_hash(hash_key_, key));
  if (n == kNil) {
    ++stats_.misses;
    return std::nullopt;
  }
  node& e = nodes_[n];
  if (expired_now(e)) {
    remove(n);
    ++stats_.expired;
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  ++e.hits;
  lru_bump(n);
  return e.value;
}

bool decision_cache::contains(const cache_key& key) const {
  const std::uint32_t n = find(key, cache_key_hash(hash_key_, key));
  return n != kNil && !expired_now(nodes_[n]);
}

void decision_cache::insert(const cache_key& key, decision d) {
  insert_hashed(key, cache_key_hash(hash_key_, key), d);
}

bool decision_cache::erase(const cache_key& key) {
  const std::uint32_t n = find(key, cache_key_hash(hash_key_, key));
  if (n == kNil) return false;
  remove(n);
  ++stats_.invalidations;
  return true;
}

std::size_t decision_cache::erase_connection(ilp::service_id service,
                                             ilp::connection_id connection) {
  const std::uint32_t* head = svc_heads_.find(service);
  if (head == nullptr) return 0;
  std::size_t erased = 0;
  for (std::uint32_t n = *head; n != kNil;) {
    const std::uint32_t next = nodes_[n].svc_next;
    if (nodes_[n].key.connection == connection) {
      remove(n);
      ++erased;
    }
    n = next;
  }
  stats_.invalidations += erased;
  return erased;
}

std::size_t decision_cache::erase_service(ilp::service_id service) {
  const std::uint32_t* head = svc_heads_.find(service);
  if (head == nullptr) return 0;
  std::size_t erased = 0;
  for (std::uint32_t n = *head; n != kNil; ++erased) {
    const std::uint32_t next = nodes_[n].svc_next;
    remove(n);
    n = next;
  }
  stats_.invalidations += erased;
  return erased;
}

std::size_t decision_cache::erase_forwards_to(peer_id hop) {
  std::size_t erased = 0;
  for (std::uint32_t n = head_; n != kNil;) {
    const std::uint32_t next = nodes_[n].next;
    const decision& v = nodes_[n].value;
    if (v.kind == decision::verdict::forward &&
        std::find(v.next_hops.begin(), v.next_hops.end(), hop) != v.next_hops.end()) {
      remove(n);
      ++erased;
    }
    n = next;
  }
  stats_.invalidations += erased;
  return erased;
}

void decision_cache::clear() {
  stats_.invalidations += size_;
  std::fill_n(index_.get(), index_mask_ + 1, 0u);
  svc_heads_.clear();
  used_ = 0;
  free_ = head_ = tail_ = kNil;
  size_ = 0;
}

std::uint64_t decision_cache::hit_count(const cache_key& key) const {
  const std::uint32_t n = find(key, cache_key_hash(hash_key_, key));
  if (n == kNil || expired_now(nodes_[n])) return 0;
  return nodes_[n].hits;
}

std::size_t decision_cache::purge_expired() {
  if (!clock_) return 0;
  const time_point now = clock_->now();
  std::size_t purged = 0;
  for (std::uint32_t n = head_; n != kNil;) {
    const std::uint32_t next = nodes_[n].next;
    if (expired_at(nodes_[n], now)) {
      remove(n);
      ++purged;
    }
    n = next;
  }
  stats_.expired += purged;
  return purged;
}

bytes decision_cache::snapshot(time_point now) const {
  writer w;
  w.u8(1);  // snapshot format version
  // Count live entries first (expired ones are omitted).
  std::uint64_t live = 0;
  for (std::uint32_t n = head_; n != kNil; n = nodes_[n].next) {
    if (!expired_at(nodes_[n], now)) ++live;
  }
  w.varint(live);
  // LRU-first so restore's inserts replay recency in order and the MRU
  // entry lands at the front again.
  for (std::uint32_t n = tail_; n != kNil; n = nodes_[n].prev) {
    const node& e = nodes_[n];
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

std::size_t decision_cache::restore_warm(const_byte_span data, time_point now) {
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
    // The insert computes expires = now + remaining and zeroes the hit
    // count; re-apply the snapshot's count so Appendix B queries see the
    // pre-failover value.
    nodes_[insert_hashed(key, cache_key_hash(hash_key_, key), d)].hits = hits;
    ++restored;
  }
  (void)now;
  return restored;
}

// ---- cache_invalidation_bus -------------------------------------------

namespace {
inline void bus_spin_pause() {
#if defined(__x86_64__) || defined(__i386__)
  asm volatile("pause");
#else
  asm volatile("" ::: "memory");
#endif
}
}  // namespace

cache_invalidation_bus::cache_invalidation_bus(std::size_t shards, std::size_t depth) {
  lanes_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) lanes_.push_back(std::make_unique<lane>(depth));
}

void cache_invalidation_bus::publish(cache_command cmd) {
  cmd.seq = published_.fetch_add(1, std::memory_order_acq_rel) + 1;
  for (auto& l : lanes_) {
    while (!l->ring.try_push(cmd)) bus_spin_pause();
  }
}

std::size_t cache_invalidation_bus::drain(std::size_t shard, decision_cache& cache) {
  lane& l = *lanes_[shard];
  std::size_t applied = 0;
  std::uint64_t last_seq = 0;
  while (auto cmd = l.ring.try_pop()) {
    switch (cmd->op) {
      case cache_op::erase_connection:
        cache.erase_connection(cmd->service, cmd->connection);
        break;
      case cache_op::erase_service:
        cache.erase_service(cmd->service);
        break;
      case cache_op::erase_next_hop:
        cache.erase_forwards_to(cmd->hop);
        break;
      case cache_op::clear:
        cache.clear();
        break;
    }
    last_seq = cmd->seq;
    ++applied;
  }
  if (applied > 0) l.applied.store(last_seq, std::memory_order_release);
  return applied;
}

bool cache_invalidation_bus::quiesced() const {
  const std::uint64_t p = published_.load(std::memory_order_acquire);
  for (const auto& l : lanes_) {
    if (l->applied.load(std::memory_order_acquire) < p) return false;
  }
  return true;
}

}  // namespace interedge::core
