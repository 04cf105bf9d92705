// Single-producer single-consumer lock-free ring buffer.
//
// This is the "shared memory ring" transport the paper contrasts with its
// IPC prototype ("e.g., as if we implemented service communication through
// shared memory rings"): the pipe-terminus thread produces, the service
// thread consumes, with no syscalls on the hot path.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

namespace interedge {

template <typename T>
class spsc_ring {
 public:
  // Capacity is rounded up to a power of two; usable slots = capacity - 1.
  // Slots are raw storage: an element is constructed by its push and
  // destroyed by its pop, so building a ring touches none of its memory.
  explicit spsc_ring(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity + 1) cap <<= 1;
    slots_ = std::allocator<T>().allocate(cap);
    mask_ = cap - 1;
  }
  ~spsc_ring() {
    for (std::size_t i = tail_.load(std::memory_order_relaxed);
         i != head_.load(std::memory_order_relaxed); i = (i + 1) & mask_) {
      std::destroy_at(slots_ + i);
    }
    std::allocator<T>().deallocate(slots_, mask_ + 1);
  }

  spsc_ring(const spsc_ring&) = delete;
  spsc_ring& operator=(const spsc_ring&) = delete;

  bool try_push(T value) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t next = (head + 1) & mask_;
    if (next == tail_.load(std::memory_order_acquire)) return false;  // full
    std::construct_at(slots_ + head, std::move(value));
    head_.store(next, std::memory_order_release);
    return true;
  }

  std::optional<T> try_pop() {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == head_.load(std::memory_order_acquire)) return std::nullopt;  // empty
    std::optional<T> value(std::move(slots_[tail]));
    std::destroy_at(slots_ + tail);
    tail_.store((tail + 1) & mask_, std::memory_order_release);
    return value;
  }

  // Batch producer: moves as many of `values` in as fit, front first, with
  // one release store for the whole run. Returns the number consumed —
  // callers treat a short count as ring-full backpressure.
  std::size_t try_push_batch(std::span<T> values) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    const std::size_t free = mask_ - ((head - tail) & mask_);
    const std::size_t n = std::min(free, values.size());
    for (std::size_t i = 0; i < n; ++i) {
      std::construct_at(slots_ + ((head + i) & mask_), std::move(values[i]));
    }
    if (n > 0) head_.store((head + n) & mask_, std::memory_order_release);
    return n;
  }

  // Batch consumer: pops up to `max` items into `out`, one acquire load and
  // one release store for the whole run. Returns the number appended.
  std::size_t try_pop_batch(std::vector<T>& out, std::size_t max) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t avail = (head - tail) & mask_;
    const std::size_t n = std::min(avail, max);
    for (std::size_t i = 0; i < n; ++i) {
      T* slot = slots_ + ((tail + i) & mask_);
      out.push_back(std::move(*slot));
      std::destroy_at(slot);
    }
    if (n > 0) tail_.store((tail + n) & mask_, std::memory_order_release);
    return n;
  }

  bool empty() const {
    return tail_.load(std::memory_order_acquire) == head_.load(std::memory_order_acquire);
  }

  // Approximate occupancy: exact from the consumer's thread, a safe
  // snapshot from anywhere else (both indices are loaded acquire).
  std::size_t size_approx() const {
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    return (head - tail) & mask_;
  }

  std::size_t capacity() const { return mask_; }

  // Backing storage, exposed for advisory NUMA placement (mbind the slots
  // onto the consumer's node). Construction-time only — never while the
  // ring carries traffic.
  void* storage() { return slots_; }
  std::size_t storage_bytes() const { return (mask_ + 1) * sizeof(T); }

 private:
  T* slots_ = nullptr;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> head_{0};
  alignas(64) std::atomic<std::size_t> tail_{0};
};

}  // namespace interedge
