// Single-producer single-consumer lock-free ring buffer.
//
// This is the "shared memory ring" transport the paper contrasts with its
// IPC prototype ("e.g., as if we implemented service communication through
// shared memory rings"): the pipe-terminus thread produces, the service
// thread consumes, with no syscalls on the hot path.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
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
  // Holds `capacity` elements, rounded up to a power of two (at least 1).
  // head_ and tail_ are free-running counts of pushes and pops (unsigned
  // wrap-around keeps head - tail exact) and a count names slot
  // `count & mask_`, so every slot is usable.
  // Slots are raw storage: an element is constructed by its push and
  // destroyed by its pop, so building a ring touches none of its memory.
  explicit spsc_ring(std::size_t capacity) {
    const std::size_t cap = std::bit_ceil(std::max<std::size_t>(capacity, 1));
    slots_ = std::allocator<T>().allocate(cap);
    mask_ = cap - 1;
  }
  ~spsc_ring() {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    for (std::size_t i = tail_.load(std::memory_order_relaxed); i != head; ++i) {
      std::destroy_at(slots_ + (i & mask_));
    }
    std::allocator<T>().deallocate(slots_, mask_ + 1);
  }

  spsc_ring(const spsc_ring&) = delete;
  spsc_ring& operator=(const spsc_ring&) = delete;

  bool try_push(T value) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head - tail_.load(std::memory_order_acquire) > mask_) return false;  // full
    std::construct_at(slots_ + (head & mask_), std::move(value));
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  std::optional<T> try_pop() {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == head_.load(std::memory_order_acquire)) return std::nullopt;  // empty
    T* slot = slots_ + (tail & mask_);
    std::optional<T> value(std::move(*slot));
    std::destroy_at(slot);
    tail_.store(tail + 1, std::memory_order_release);
    return value;
  }

  // Batch producer: moves as many of `values` in as fit, front first, with
  // one release store for the whole run. Returns the number consumed —
  // callers treat a short count as ring-full backpressure.
  std::size_t try_push_batch(std::span<T> values) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    const std::size_t n = std::min(capacity() - (head - tail), values.size());
    for (std::size_t i = 0; i < n; ++i) {
      std::construct_at(slots_ + ((head + i) & mask_), std::move(values[i]));
    }
    if (n > 0) head_.store(head + n, std::memory_order_release);
    return n;
  }

  // Batch consumer: pops up to `max` items into `out`, one acquire load and
  // one release store for the whole run. Returns the number appended.
  std::size_t try_pop_batch(std::vector<T>& out, std::size_t max) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t n = std::min(head - tail, max);
    for (std::size_t i = 0; i < n; ++i) {
      T* slot = slots_ + ((tail + i) & mask_);
      out.push_back(std::move(*slot));
      std::destroy_at(slot);
    }
    if (n > 0) tail_.store(tail + n, std::memory_order_release);
    return n;
  }

  bool empty() const {
    return tail_.load(std::memory_order_acquire) == head_.load(std::memory_order_acquire);
  }

  // Approximate occupancy: exact from the consumer's thread, a safe
  // snapshot from anywhere else. tail_ is loaded first, so the head_ read
  // after it is never behind it; a third thread's snapshot can overshoot
  // while both move, hence the clamp.
  std::size_t size_approx() const {
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    const std::size_t head = head_.load(std::memory_order_acquire);
    return std::min(head - tail, capacity());
  }

  std::size_t capacity() const { return mask_ + 1; }

 private:
  T* slots_ = nullptr;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> head_{0};
  alignas(64) std::atomic<std::size_t> tail_{0};
};

}  // namespace interedge
