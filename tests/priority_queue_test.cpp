// PriorityQueue: strict class order, FIFO within a class, aging-based
// starvation protection, try_push shedding, close-and-drain, and the
// close()/push() races under TSan — the queue discipline of the job
// execution core behind batches and the networked JobDaemon.
#include "svc/priority_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace mfd::svc {
namespace {

constexpr int kInteractive = 0;
constexpr int kBulk = 1;
/// A threshold no test ever reaches: strict priority in practice, with the
/// aging code path still armed.
constexpr double kFarAging = 3600.0;

TEST(PriorityQueue, RejectsZeroCapacityAndZeroClasses) {
  EXPECT_THROW(PriorityQueue<int>(0, 2, kFarAging), Error);
  EXPECT_THROW(PriorityQueue<int>(4, 0, kFarAging), Error);
}

TEST(PriorityQueue, RejectsClassOutOfRange) {
  PriorityQueue<int> queue(4, 2, kFarAging);
  EXPECT_THROW(queue.push(2, 1), Error);
  EXPECT_THROW(queue.push(-1, 1), Error);
}

TEST(PriorityQueue, InteractiveIsServedBeforeEarlierBulk) {
  PriorityQueue<int> queue(8, 2, kFarAging);
  ASSERT_TRUE(queue.push(kBulk, 100));
  ASSERT_TRUE(queue.push(kBulk, 101));
  ASSERT_TRUE(queue.push(kInteractive, 1));
  ASSERT_TRUE(queue.push(kInteractive, 2));
  // Both interactive items jump the earlier-arrived bulk pair.
  EXPECT_EQ(queue.pop(), std::optional<int>(1));
  EXPECT_EQ(queue.pop(), std::optional<int>(2));
  EXPECT_EQ(queue.pop(), std::optional<int>(100));
  EXPECT_EQ(queue.pop(), std::optional<int>(101));
}

TEST(PriorityQueue, FifoWithinEachClass) {
  PriorityQueue<int> queue(8, 2, kFarAging);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(queue.push(kBulk, 100 + i));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(queue.push(kInteractive, i));
  for (int i = 0; i < 3; ++i) EXPECT_EQ(queue.pop(), std::optional<int>(i));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(queue.pop(), std::optional<int>(100 + i));
  }
}

TEST(PriorityQueue, AgeZeroIsGlobalArrivalOrder) {
  // age_promote_s == 0 means every entry is "aged" on arrival, so the queue
  // degenerates to one global FIFO regardless of class.
  PriorityQueue<int> queue(8, 2, 0.0);
  ASSERT_TRUE(queue.push(kBulk, 100));
  ASSERT_TRUE(queue.push(kInteractive, 1));
  ASSERT_TRUE(queue.push(kBulk, 101));
  ASSERT_TRUE(queue.push(kInteractive, 2));
  EXPECT_EQ(queue.pop(), std::optional<int>(100));
  EXPECT_EQ(queue.pop(), std::optional<int>(1));
  EXPECT_EQ(queue.pop(), std::optional<int>(101));
  EXPECT_EQ(queue.pop(), std::optional<int>(2));
}

TEST(PriorityQueue, AgedBulkFrontBeatsFreshInteractive) {
  // The starvation bound: once a bulk entry has waited past the promotion
  // threshold, it competes on arrival order and wins against interactive
  // work that arrived after it.
  PriorityQueue<int> queue(8, 2, 0.05);
  ASSERT_TRUE(queue.push(kBulk, 100));
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  ASSERT_TRUE(queue.push(kInteractive, 1));
  ASSERT_TRUE(queue.push(kInteractive, 2));
  EXPECT_EQ(queue.pop(), std::optional<int>(100));
  EXPECT_EQ(queue.pop(), std::optional<int>(1));
  EXPECT_EQ(queue.pop(), std::optional<int>(2));
}

TEST(PriorityQueue, BulkShortOfTheThresholdIsNeverPromoted) {
  PriorityQueue<int> queue(8, 2, kFarAging);
  ASSERT_TRUE(queue.push(kBulk, 100));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(queue.push(kInteractive, 1));
  // The bulk entry waited, but not past the threshold: interactive wins.
  EXPECT_EQ(queue.pop(), std::optional<int>(1));
  EXPECT_EQ(queue.pop(), std::optional<int>(100));
}

TEST(PriorityQueue, SteadyInteractiveLoadCannotStarveBulk) {
  // Property behind the daemon's fairness promise: with aging on, a bulk
  // job survives an arbitrarily long stream of later interactive arrivals
  // once its wait crosses the threshold.
  PriorityQueue<int> queue(64, 2, 0.05);
  ASSERT_TRUE(queue.push(kBulk, 999));
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  for (int i = 0; i < 32; ++i) ASSERT_TRUE(queue.push(kInteractive, i));
  // The very next pop must be the aged bulk entry, not any of the 32
  // interactive items that arrived while it waited.
  EXPECT_EQ(queue.pop(), std::optional<int>(999));
}

TEST(PriorityQueue, TryPushShedsWhenFullAndAfterClose) {
  PriorityQueue<int> queue(2, 2, kFarAging);
  EXPECT_TRUE(queue.try_push(kInteractive, 1));
  EXPECT_TRUE(queue.try_push(kBulk, 2));
  // Capacity is shared across classes: both flavours shed now.
  EXPECT_FALSE(queue.try_push(kInteractive, 3));
  EXPECT_FALSE(queue.try_push(kBulk, 4));
  EXPECT_EQ(queue.pop(), std::optional<int>(1));
  EXPECT_TRUE(queue.try_push(kBulk, 5));
  queue.close();
  EXPECT_FALSE(queue.try_push(kInteractive, 6));
}

TEST(PriorityQueue, CloseDrainsQueuedItemsThenReportsExhaustion) {
  PriorityQueue<int> queue(4, 2, kFarAging);
  ASSERT_TRUE(queue.push(kBulk, 100));
  ASSERT_TRUE(queue.push(kInteractive, 1));
  queue.close();
  EXPECT_FALSE(queue.push(kInteractive, 2));
  EXPECT_EQ(queue.pop(), std::optional<int>(1));
  EXPECT_EQ(queue.pop(), std::optional<int>(100));
  EXPECT_EQ(queue.pop(), std::nullopt);
  EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(PriorityQueue, PushBlocksUntilThereIsRoomAndCloseWakesIt) {
  PriorityQueue<int> queue(1, 2, kFarAging);
  ASSERT_TRUE(queue.push(kInteractive, 1));
  std::atomic<int> admitted{0};
  std::atomic<int> rejected{0};
  std::thread blocked_then_admitted([&] {
    if (queue.push(kBulk, 2)) {
      admitted.fetch_add(1);
    } else {
      rejected.fetch_add(1);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(admitted.load() + rejected.load(), 0);
  EXPECT_EQ(queue.pop(), std::optional<int>(1));  // makes room
  blocked_then_admitted.join();
  EXPECT_EQ(admitted.load(), 1);

  ASSERT_EQ(queue.pop(), std::optional<int>(2));
  ASSERT_TRUE(queue.push(kInteractive, 3));  // full again
  std::thread blocked_then_rejected([&] {
    if (!queue.push(kBulk, 4)) rejected.fetch_add(1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  blocked_then_rejected.join();
  EXPECT_EQ(rejected.load(), 1);
}

TEST(PriorityQueue, PopBlocksUntilAnItemArrives) {
  PriorityQueue<int> queue(2, 2, kFarAging);
  std::optional<int> seen;
  std::thread consumer([&] { seen = queue.pop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(queue.push(kBulk, 42));
  consumer.join();
  EXPECT_EQ(seen, std::optional<int>(42));
}

TEST(PriorityQueue, MixedClassStressLosesNothing) {
  // TSan target: producers pushing both classes race consumers and a late
  // close(); every admitted item must be popped exactly once.
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  PriorityQueue<int> queue(8, 2, 0.001);  // aging armed and frequently hit
  std::atomic<int> admitted{0};
  std::atomic<int> popped{0};
  std::atomic<long> pushed_sum{0};
  std::atomic<long> popped_sum{0};

  std::vector<std::thread> threads;
  threads.reserve(kProducers + kConsumers);
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (std::optional<int> item = queue.pop()) {
        popped_sum.fetch_add(*item);
        popped.fetch_add(1);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&queue, &admitted, &pushed_sum, p] {
      for (int i = 0;; ++i) {
        const int value = p * 1000000 + i;
        const int job_class = i % 2;
        if (!queue.push(job_class, value)) return;  // closed mid-stream
        admitted.fetch_add(1);
        pushed_sum.fetch_add(value);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  queue.close();
  for (std::thread& thread : threads) thread.join();

  EXPECT_GT(admitted.load(), 0);
  EXPECT_EQ(popped.load(), admitted.load());
  EXPECT_EQ(popped_sum.load(), pushed_sum.load());
}

}  // namespace
}  // namespace mfd::svc
