// Reference-counted fixed-slab buffer pool for the zero-copy datapath.
//
// The SN datapath used to copy every packet between owned `bytes` at each
// stage (udp rx -> steer -> shard decrypt -> terminus). ROADMAP item 2
// replaces those copies with slab references: the transport receives
// straight into pool slabs, and a non-owning `pkt_view` window travels
// through peek/steer, the shard SPSC rings and the terminus. A slab goes
// back on the free list when the last reference drops, wherever that
// happens — so a view can be handed from the control thread to a worker
// shard (or cloned for egress) without any copy and without the pool
// caring which thread finishes with it.
//
//   buf_pool  — one contiguous cache-line-aligned arena of fixed slabs
//               (sized for MTU + headroom) with intrusive per-slab atomic
//               refcounts and a mutex-guarded global free list
//   cache     — a per-owner (per endpoint / per shard) free-list cache:
//               allocations pop locally and refill from the global list a
//               batch at a time, so the steady-state rx path takes the
//               pool mutex once per `cache_batch` packets
//   slab_ref  — move-only owner of one reference to one slab
//   pkt_view  — slab_ref plus an (offset, length) window: the packet as
//               the datapath sees it, trimmable without touching memory
//
// Exhaustion is a counted drop, never UB: try_alloc returns a null ref and
// bumps the exhausted counter; callers shed the packet.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/bytes.h"

namespace interedge::buf {

struct pool_config {
  // Rounded up to a multiple of the 64-byte cache line. The default fits a
  // jumbo-frame datagram plus headroom; anything larger is truncated by
  // the transport and counted, never silently corrupted.
  std::size_t slab_size = 9216;
  std::size_t slab_count = 256;
  // Slabs moved between a local cache and the global free list per refill
  // or spill — the amortization factor on the pool mutex.
  std::size_t cache_batch = 32;
  // NUMA node to place the arena on (best-effort mbind at construction;
  // see cpu_topology.h). -1 = wherever first touch lands, the default.
  int numa_node = -1;
};

struct pool_stats {
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t exhausted = 0;  // try_alloc calls that found the pool dry
  std::uint64_t refills = 0;    // local-cache batch refills from the pool
  std::uint64_t spills = 0;     // local-cache batch returns to the pool
  std::size_t outstanding = 0;  // slabs currently referenced
};

class buf_pool;

// Move-only owner of one reference to one slab. Destroying (or resetting)
// the last reference returns the slab to the pool's free list — from any
// thread; the refcount is the only shared state.
class slab_ref {
 public:
  slab_ref() = default;
  slab_ref(slab_ref&& other) noexcept : pool_(other.pool_), idx_(other.idx_) {
    other.pool_ = nullptr;
  }
  slab_ref& operator=(slab_ref&& other) noexcept {
    if (this != &other) {
      reset();
      pool_ = other.pool_;
      idx_ = other.idx_;
      other.pool_ = nullptr;
    }
    return *this;
  }
  slab_ref(const slab_ref&) = delete;
  slab_ref& operator=(const slab_ref&) = delete;
  ~slab_ref() { reset(); }

  // An additional reference to the same slab (refcount increment).
  slab_ref clone() const;

  void reset();
  explicit operator bool() const { return pool_ != nullptr; }

  std::uint8_t* data() const;
  std::size_t size() const;  // the pool's slab size
  std::uint32_t index() const { return idx_; }
  std::uint32_t refcount() const;  // snapshot, for tests

 private:
  friend class buf_pool;
  slab_ref(buf_pool* pool, std::uint32_t idx) : pool_(pool), idx_(idx) {}

  buf_pool* pool_ = nullptr;
  std::uint32_t idx_ = 0;
};

// A packet: one slab reference plus a byte window into it. Trimming moves
// the window, never the data; clone() takes another slab reference over
// the same window. The window's bytes are mutable through mutable_span()
// — in-place header decrypt relies on this — which is safe while the
// holder is the only writer (the ingress path's refcount-1 case).
class pkt_view {
 public:
  pkt_view() = default;
  pkt_view(slab_ref ref, std::size_t offset, std::size_t length)
      : ref_(std::move(ref)),
        off_(static_cast<std::uint32_t>(offset)),
        len_(static_cast<std::uint32_t>(length)) {}

  explicit operator bool() const { return static_cast<bool>(ref_); }
  bool empty() const { return len_ == 0; }
  std::size_t size() const { return len_; }
  const std::uint8_t* data() const { return ref_.data() + off_; }
  const_byte_span span() const { return const_byte_span(ref_.data() + off_, len_); }
  byte_span mutable_span() const { return byte_span(ref_.data() + off_, len_); }

  // Bytes between the slab start and the window — room to prepend without
  // moving the payload.
  std::size_t headroom() const { return off_; }
  // Bytes between the window end and the slab end.
  std::size_t tailroom() const { return ref_ ? ref_.size() - off_ - len_ : 0; }

  // Drops `n` bytes off the front of the window (n clamped to size()).
  void trim_front(std::size_t n) {
    if (n > len_) n = len_;
    off_ += static_cast<std::uint32_t>(n);
    len_ -= static_cast<std::uint32_t>(n);
  }
  // Shrinks the window to its first `n` bytes (no-op if already shorter).
  void truncate(std::size_t n) {
    if (n < len_) len_ = static_cast<std::uint32_t>(n);
  }

  // Another reference to the same slab, same window.
  pkt_view clone() const { return pkt_view(ref_.clone(), off_, len_); }
  // Another reference, window narrowed to [offset, offset+length) relative
  // to this view.
  pkt_view subview(std::size_t offset, std::size_t length) const {
    return pkt_view(ref_.clone(), off_ + offset, length);
  }

  const slab_ref& slab() const { return ref_; }
  void reset() {
    ref_.reset();
    off_ = len_ = 0;
  }

 private:
  slab_ref ref_;
  std::uint32_t off_ = 0;
  std::uint32_t len_ = 0;
};

class buf_pool {
 public:
  explicit buf_pool(pool_config cfg = {});
  ~buf_pool();

  buf_pool(const buf_pool&) = delete;
  buf_pool& operator=(const buf_pool&) = delete;

  // One slab off the global free list (refcount 1); null + counted when
  // the pool is dry. Hot paths go through a `cache` instead.
  slab_ref try_alloc();

  std::size_t slab_size() const { return slab_size_; }
  std::size_t slab_count() const { return slab_count_; }
  std::uint8_t* arena_base() const { return arena_; }

  pool_stats stats() const;

  // Per-owner free-list cache. Not thread-safe; each owner (e.g. an
  // endpoint's rx loop) holds its own. Destroying the cache spills its
  // slabs back to the pool.
  class cache {
   public:
    explicit cache(buf_pool& pool) : pool_(&pool) {
      local_.reserve(pool.cache_batch_);
    }
    ~cache() { spill_all(); }
    cache(const cache&) = delete;
    cache& operator=(const cache&) = delete;

    slab_ref try_alloc();
    void spill_all();
    std::size_t cached() const { return local_.size(); }

   private:
    buf_pool* pool_;
    std::vector<std::uint32_t> local_;
  };

 private:
  friend class slab_ref;

  struct ctl {
    std::atomic<std::uint32_t> refs{0};
  };

  // Refcount hit zero: back on the global free list.
  void recycle(std::uint32_t idx);

  std::size_t slab_size_ = 0;
  std::size_t slab_count_ = 0;
  std::size_t cache_batch_ = 0;
  std::uint8_t* arena_ = nullptr;
  std::unique_ptr<ctl[]> ctl_;

  mutable std::mutex mu_;
  std::vector<std::uint32_t> free_;  // guarded by mu_
  std::uint64_t refills_ = 0;        // guarded by mu_
  std::uint64_t spills_ = 0;         // guarded by mu_

  std::atomic<std::uint64_t> allocs_{0};
  std::atomic<std::uint64_t> frees_{0};
  std::atomic<std::uint64_t> exhausted_{0};
};

}  // namespace interedge::buf
