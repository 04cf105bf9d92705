#include "alloc_counter.h"

#include <cstdlib>
#include <new>

namespace interedge::bench {

std::atomic<std::uint64_t> g_heap_allocs{0};
std::atomic<bool> g_count_allocs{false};

}  // namespace interedge::bench

using interedge::bench::g_count_allocs;
using interedge::bench::g_heap_allocs;

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
