#include "common/buf_pool.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <new>
#include <stdexcept>

namespace interedge::buf {

namespace {
constexpr std::size_t kCacheLine = 64;

std::size_t round_up(std::size_t n, std::size_t align) {
  return (n + align - 1) / align * align;
}
}  // namespace

// ---- slab_ref ----------------------------------------------------------

slab_ref slab_ref::clone() const {
  if (pool_ == nullptr) return slab_ref();
  pool_->ctl_[idx_].refs.fetch_add(1, std::memory_order_relaxed);
  return slab_ref(pool_, idx_);
}

void slab_ref::reset() {
  if (pool_ == nullptr) return;
  buf_pool* pool = pool_;
  const std::uint32_t idx = idx_;
  pool_ = nullptr;
  // acq_rel: the release half publishes this holder's writes to whoever
  // reuses the slab; the acquire half (on the final decrement) makes every
  // other holder's writes visible before recycle.
  if (pool->ctl_[idx].refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    pool->recycle(idx);
  }
}

std::uint8_t* slab_ref::data() const {
  return pool_->arena_ + static_cast<std::size_t>(idx_) * pool_->slab_size_;
}

std::size_t slab_ref::size() const { return pool_->slab_size_; }

std::uint32_t slab_ref::refcount() const {
  return pool_ == nullptr ? 0 : pool_->ctl_[idx_].refs.load(std::memory_order_relaxed);
}

// ---- buf_pool ----------------------------------------------------------

buf_pool::buf_pool(pool_config cfg)
    : slab_size_(round_up(cfg.slab_size == 0 ? 1 : cfg.slab_size, kCacheLine)),
      slab_count_(cfg.slab_count),
      cache_batch_(cfg.cache_batch == 0 ? 1 : cfg.cache_batch) {
  if (slab_count_ == 0) throw std::invalid_argument("buf_pool: slab_count == 0");
  arena_ = static_cast<std::uint8_t*>(
      ::aligned_alloc(kCacheLine, slab_size_ * slab_count_));
  if (arena_ == nullptr) throw std::bad_alloc();
  ctl_ = std::make_unique<ctl[]>(slab_count_);
  free_.reserve(slab_count_);
  // LIFO free list: the most recently released slab is the hottest in
  // cache, so hand it out next.
  for (std::size_t i = slab_count_; i > 0; --i) {
    free_.push_back(static_cast<std::uint32_t>(i - 1));
  }
}

buf_pool::~buf_pool() {
  // Outstanding refs here mean a slab_ref outlived the pool — a lifetime
  // bug in the owner (pool members must be declared before anything that
  // holds views into them).
  assert(free_.size() == slab_count_ && "buf_pool destroyed with outstanding slab refs");
  ::free(arena_);
}

slab_ref buf_pool::try_alloc() {
  std::uint32_t idx;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.empty()) {
      exhausted_.fetch_add(1, std::memory_order_relaxed);
      return slab_ref();
    }
    idx = free_.back();
    free_.pop_back();
  }
  ctl_[idx].refs.store(1, std::memory_order_relaxed);
  allocs_.fetch_add(1, std::memory_order_relaxed);
  return slab_ref(this, idx);
}

void buf_pool::recycle(std::uint32_t idx) {
  frees_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(idx);
}

pool_stats buf_pool::stats() const {
  pool_stats s;
  s.allocs = allocs_.load(std::memory_order_relaxed);
  s.frees = frees_.load(std::memory_order_relaxed);
  s.exhausted = exhausted_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  s.refills = refills_;
  s.spills = spills_;
  s.outstanding = slab_count_ - free_.size();
  return s;
}

// ---- buf_pool::cache ---------------------------------------------------

slab_ref buf_pool::cache::try_alloc() {
  if (local_.empty()) {
    std::lock_guard<std::mutex> lock(pool_->mu_);
    const std::size_t take = std::min(pool_->cache_batch_, pool_->free_.size());
    if (take == 0) {
      pool_->exhausted_.fetch_add(1, std::memory_order_relaxed);
      return slab_ref();
    }
    local_.insert(local_.end(), pool_->free_.end() - static_cast<std::ptrdiff_t>(take),
                  pool_->free_.end());
    pool_->free_.resize(pool_->free_.size() - take);
    ++pool_->refills_;
  }
  const std::uint32_t idx = local_.back();
  local_.pop_back();
  pool_->ctl_[idx].refs.store(1, std::memory_order_relaxed);
  pool_->allocs_.fetch_add(1, std::memory_order_relaxed);
  return slab_ref(pool_, idx);
}

void buf_pool::cache::spill_all() {
  if (local_.empty()) return;
  std::lock_guard<std::mutex> lock(pool_->mu_);
  pool_->free_.insert(pool_->free_.end(), local_.begin(), local_.end());
  ++pool_->spills_;
  local_.clear();
}

}  // namespace interedge::buf
