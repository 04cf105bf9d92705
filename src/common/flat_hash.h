// Open-addressed hash map for the transport hot path.
//
// udp_endpoint resolves every received datagram's source (packed ip:port)
// to a peer_id, and every send's peer_id to a sockaddr. std::map put a
// pointer-chasing red-black tree walk on that per-datagram path; peer
// tables are tiny (tens of entries) and insert-only, so a linear-probe
// flat table with the key/value inline is both simpler and an order of
// magnitude fewer cache misses.
//
// The decision cache keeps its per-service list heads in one too, keyed by
// service ID, and drops a service when its last entry leaves.
//
// Deliberately minimal: u64 keys, insert-or-assign, find and erase, grows
// by doubling at 70% load and never shrinks. Erase shifts the rest of the
// probe run back, so there are no tombstones. A per-slot occupied flag
// rather than a sentinel key — peer_id 0 and source 0 are both
// representable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace interedge {

template <typename V>
class flat_hash64 {
 public:
  flat_hash64() { rehash(16); }

  // Inserts or overwrites. Returns a reference valid until the next insert.
  V& insert(std::uint64_t key, V value) {
    if ((size_ + 1) * 10 >= slots_.size() * 7) rehash(slots_.size() * 2);
    slot& s = probe(key);
    if (!s.occupied) {
      s.occupied = true;
      s.key = key;
      ++size_;
    }
    s.value = std::move(value);
    return s.value;
  }

  V* find(std::uint64_t key) {
    slot& s = probe(key);
    return s.occupied ? &s.value : nullptr;
  }
  const V* find(std::uint64_t key) const {
    return const_cast<flat_hash64*>(this)->find(key);
  }

  // Removes `key` if present. Every later member of its probe run whose
  // home slot does not lie between the hole and itself moves back into
  // the hole, so a find never stops early at a vacated slot.
  bool erase(std::uint64_t key) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t hole = mix(key) & mask;
    while (slots_[hole].occupied && slots_[hole].key != key) hole = (hole + 1) & mask;
    if (!slots_[hole].occupied) return false;
    for (std::size_t j = (hole + 1) & mask; slots_[j].occupied; j = (j + 1) & mask) {
      const std::size_t home = mix(slots_[j].key) & mask;
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = slot{};
    --size_;
    return true;
  }

  // Empties the table, keeping its size.
  void clear() {
    for (slot& s : slots_) s = slot{};
    size_ = 0;
  }

  bool contains(std::uint64_t key) const { return find(key) != nullptr; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Iteration (stats/tests): visits every occupied slot.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const slot& s : slots_) {
      if (s.occupied) fn(s.key, s.value);
    }
  }

 private:
  struct slot {
    std::uint64_t key = 0;
    V value{};
    bool occupied = false;
  };

  static std::uint64_t mix(std::uint64_t x) {
    // splitmix64 finalizer: packed ip:port keys share high bytes, so the
    // raw value would cluster; this spreads them over the table.
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  // First matching-or-empty slot for `key`. The table never fills (grown
  // at 70% load), so the probe always terminates.
  slot& probe(std::uint64_t key) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = mix(key) & mask;
    while (slots_[i].occupied && slots_[i].key != key) i = (i + 1) & mask;
    return slots_[i];
  }

  void rehash(std::size_t capacity) {
    std::vector<slot> old = std::move(slots_);
    slots_.assign(capacity, slot{});
    for (slot& s : old) {
      if (!s.occupied) continue;
      slot& dst = probe(s.key);
      dst.occupied = true;
      dst.key = s.key;
      dst.value = std::move(s.value);
    }
  }

  std::vector<slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace interedge
