#include "common/ring.h"

#include <gtest/gtest.h>

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
  spsc_ring<int> ring(2);  // rounds up; usable capacity >= 2
  std::size_t pushed = 0;
  while (ring.try_push(static_cast<int>(pushed))) ++pushed;
  EXPECT_EQ(pushed, ring.capacity());
  EXPECT_FALSE(ring.try_push(999));
  ring.try_pop();
  EXPECT_TRUE(ring.try_push(999));
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
