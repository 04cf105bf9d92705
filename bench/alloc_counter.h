// Heap-allocation counter for the allocation audits in
// ablation_batch_datapath: alloc_counter.cpp replaces the global operator
// new/delete for the whole binary, and while g_count_allocs is set every
// operator new call adds one to g_heap_allocs. Counting is gated so
// setup/teardown churn stays out of an audit.
//
// The replacements live in their own translation unit so that no caller
// can inline them. A caller that inlined the replacement delete would see
// free() release memory it got from operator new, which GCC reports as a
// mismatched pair (-Wmismatched-new-delete).
#pragma once

#include <atomic>
#include <cstdint>

namespace interedge::bench {

extern std::atomic<std::uint64_t> g_heap_allocs;
extern std::atomic<bool> g_count_allocs;

}  // namespace interedge::bench
