#include "common/ring.h"

#include <gtest/gtest.h>

#include <span>
#include <thread>
#include <vector>

namespace interedge {
namespace {

TEST(SpscRing, PushPopSingleThread) {
  spsc_ring<int> ring(4);
  EXPECT_TRUE(ring.empty());
  EXPECT_TRUE(ring.try_push(1));
  EXPECT_TRUE(ring.try_push(2));
  EXPECT_EQ(ring.try_pop().value(), 1);
  EXPECT_EQ(ring.try_pop().value(), 2);
  EXPECT_FALSE(ring.try_pop().has_value());
}

TEST(SpscRing, FullRingRejectsPush) {
  spsc_ring<int> ring(2);
  std::size_t pushed = 0;
  while (ring.try_push(static_cast<int>(pushed))) ++pushed;
  EXPECT_EQ(pushed, 2u);
  EXPECT_EQ(pushed, ring.capacity());
  EXPECT_FALSE(ring.try_push(999));
  ring.try_pop();
  EXPECT_TRUE(ring.try_push(999));
}

// A power-of-two request gets exactly that many slots; anything else rounds
// up to the next power of two.
TEST(SpscRing, CapacityIsTheRequestedSlotCount) {
  for (std::size_t n : {1u, 2u, 4u, 1024u}) EXPECT_EQ(spsc_ring<int>(n).capacity(), n) << n;
  EXPECT_EQ(spsc_ring<int>(5).capacity(), 8u);
}

// Exactly capacity() pushes fit and the next one fails, however far the
// free-running indices have advanced: each round wraps the ring once.
TEST(SpscRing, ExactlyCapacityFitsAcrossWraps) {
  for (std::size_t n : {1u, 2u, 4u, 5u}) {
    spsc_ring<int> ring(n);
    const std::size_t cap = ring.capacity();
    int next_push = 0;
    int next_pop = 0;
    for (int round = 0; round < 4; ++round) {
      for (std::size_t i = 0; i < cap; ++i) ASSERT_TRUE(ring.try_push(next_push++)) << n;
      EXPECT_FALSE(ring.try_push(-1)) << n;
      EXPECT_EQ(ring.size_approx(), cap) << n;
      for (std::size_t i = 0; i < cap; ++i) ASSERT_EQ(ring.try_pop().value(), next_pop++) << n;
      EXPECT_FALSE(ring.try_pop().has_value()) << n;
      EXPECT_TRUE(ring.empty()) << n;
    }
  }
}

TEST(SpscRing, BatchCallsFillExactlyCapacityAcrossWraps) {
  for (std::size_t n : {1u, 2u, 4u, 5u}) {
    spsc_ring<int> ring(n);
    const std::size_t cap = ring.capacity();
    int next = 0;
    int expect = 0;
    // Offset the indices by one, so every batch straddles the end of the
    // slot array.
    ASSERT_TRUE(ring.try_push(next++));
    ASSERT_EQ(ring.try_pop().value(), expect++);
    for (int round = 0; round < 4; ++round) {
      std::vector<int> in;
      for (std::size_t i = 0; i <= cap; ++i) in.push_back(next + static_cast<int>(i));
      ASSERT_EQ(ring.try_push_batch(std::span<int>(in)), cap) << n;
      next += static_cast<int>(cap);
      EXPECT_FALSE(ring.try_push(-1)) << n;
      std::vector<int> one{-1};
      EXPECT_EQ(ring.try_push_batch(std::span<int>(one)), 0u) << n;
      std::vector<int> out;
      ASSERT_EQ(ring.try_pop_batch(out, cap + 1), cap) << n;
      for (int v : out) EXPECT_EQ(v, expect++) << n;
      EXPECT_TRUE(ring.empty()) << n;
    }
  }
}

TEST(SpscRing, FifoOrderPreserved) {
  spsc_ring<int> ring(128);
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(ring.try_push(i));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(ring.try_pop().value(), i);
}

TEST(SpscRing, MoveOnlyTypes) {
  spsc_ring<std::unique_ptr<int>> ring(4);
  EXPECT_TRUE(ring.try_push(std::make_unique<int>(7)));
  auto popped = ring.try_pop();
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(**popped, 7);
}

// Slots are raw storage: building a ring constructs no element, a pop
// destroys what its push built, and the ring destroys what is left.
TEST(SpscRing, ElementsLiveOnlyBetweenPushAndPop) {
  static int live = 0;
  struct counted {
    counted() { ++live; }
    counted(const counted&) { ++live; }
    counted(counted&&) noexcept { ++live; }
    ~counted() { --live; }
  };
  {
    spsc_ring<counted> ring(8);
    EXPECT_EQ(live, 0);
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(ring.try_push(counted{}));
    EXPECT_EQ(live, 5);
    ring.try_pop();
    EXPECT_EQ(live, 4);
    std::vector<counted> out;
    EXPECT_EQ(ring.try_pop_batch(out, 2), 2u);
    EXPECT_EQ(live, 4);  // two moved out, two still in the ring
    out.clear();
    EXPECT_EQ(live, 2);
  }
  EXPECT_EQ(live, 0);
}

// Property: cross-thread, every pushed element arrives exactly once, in order.
TEST(SpscRing, ProducerConsumerStress) {
  spsc_ring<std::uint64_t> ring(1024);
  constexpr std::uint64_t kCount = 1000000;

  std::thread producer([&ring] {
    for (std::uint64_t i = 0; i < kCount; ++i) {
      while (!ring.try_push(i)) std::this_thread::yield();
    }
  });

  std::uint64_t expected = 0;
  while (expected < kCount) {
    auto v = ring.try_pop();
    if (!v) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_EQ(*v, expected);
    ++expected;
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

}  // namespace
}  // namespace interedge
