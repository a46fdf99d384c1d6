#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "common/mpmc_queue.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"

namespace vdb {
namespace {

TEST(MpmcQueueTest, FifoOrderSingleThread) {
  MpmcQueue<int> queue;
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(queue.Push(i));
  for (int i = 0; i < 10; ++i) {
    auto item = queue.Pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, i);
  }
}

TEST(MpmcQueueTest, TryPopOnEmptyReturnsNothing) {
  MpmcQueue<int> queue;
  EXPECT_FALSE(queue.TryPop().has_value());
}

TEST(MpmcQueueTest, BoundedTryPushFailsWhenFull) {
  MpmcQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));
  (void)queue.Pop();
  EXPECT_TRUE(queue.TryPush(3));
}

TEST(MpmcQueueTest, CloseDrainsThenSignalsEnd) {
  MpmcQueue<int> queue;
  queue.Push(1);
  queue.Push(2);
  queue.Close();
  EXPECT_FALSE(queue.Push(3));
  EXPECT_EQ(*queue.Pop(), 1);
  EXPECT_EQ(*queue.Pop(), 2);
  EXPECT_FALSE(queue.Pop().has_value());
}

TEST(MpmcQueueTest, CloseUnblocksWaitingConsumer) {
  MpmcQueue<int> queue;
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    (void)queue.Pop();
    returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.Close();
  consumer.join();
  EXPECT_TRUE(returned);
}

TEST(MpmcQueueTest, ManyProducersManyConsumersDeliverEverything) {
  MpmcQueue<int> queue(64);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  std::atomic<long long> sum{0};
  std::atomic<int> received{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      while (auto item = queue.Pop()) {
        sum += *item;
        ++received;
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        EXPECT_TRUE(queue.Push(p * kPerProducer + i));
      }
    });
  }
  for (auto& t : producers) t.join();
  queue.Close();
  for (auto& t : consumers) t.join();

  const int total = kProducers * kPerProducer;
  EXPECT_EQ(received.load(), total);
  EXPECT_EQ(sum.load(), static_cast<long long>(total) * (total - 1) / 2);
}

TEST(ThreadPoolTest, SubmitReturnsFutureValue) {
  ThreadPool pool(2);
  auto future = pool.Submit([] { return 21 * 2; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPoolTest, AtLeastOneThreadEvenWhenAskedForZero) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.NumThreads(), 1u);
  EXPECT_EQ(pool.Submit([] { return 5; }).get(), 5);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(1000);
  pool.ParallelFor(0, counts.size(), [&](std::size_t i) { counts[i]++; });
  for (const auto& count : counts) EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, ParallelForGrainCoversSkewedRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(10'000);
  // Skewed per-item cost: the last indices are ~100x the first. The atomic
  // cursor rebalances, but correctness is what's asserted — every index runs
  // exactly once regardless of which thread claims which slice.
  pool.ParallelFor(0, counts.size(), /*grain=*/7, [&](std::size_t i) {
    volatile std::size_t sink = 0;
    for (std::size_t spin = 0; spin < i / 100; ++spin) sink = sink + spin;
    counts[i]++;
  });
  for (const auto& count : counts) EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, ParallelForGrainLargerThanRangeStillCovers) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(33);
  pool.ParallelFor(0, counts.size(), /*grain=*/1000, [&](std::size_t i) { counts[i]++; });
  for (const auto& count : counts) EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, ParallelForTinyRangeCoversExactlyOnce) {
  // total <= NumThreads() takes the static one-item-per-task path.
  ThreadPool pool(8);
  std::vector<std::atomic<int>> counts(3);
  pool.ParallelFor(0, counts.size(), [&](std::size_t i) { counts[i]++; });
  for (const auto& count : counts) EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, NestedParallelForTerminates) {
  // An inner ParallelFor issued from a worker thread must not deadlock even
  // when every pool thread is busy with the outer loop: the calling thread
  // participates in its own job, so progress never depends on a free helper.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(0, 8, /*grain=*/1, [&](std::size_t) {
    pool.ParallelFor(0, 16, /*grain=*/1, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  pool.ParallelFor(5, 5, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 20; ++i) {
      (void)pool.Submit([&] { ++done; });
    }
  }
  EXPECT_EQ(done.load(), 20);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(watch.ElapsedSeconds(), 0.015);
  EXPECT_GE(watch.ElapsedNanos(), 15'000'000u);
}

TEST(StopwatchTest, LapResetsLapOrigin) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  const double lap1 = watch.LapSeconds();
  const double lap2 = watch.LapSeconds();
  EXPECT_GE(lap1, 0.010);
  EXPECT_LT(lap2, lap1);
}

TEST(ScopeTimerTest, AccumulatesOnDestruction) {
  double total = 0.0;
  {
    ScopeTimer timer(total);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(total, 0.005);
}

}  // namespace
}  // namespace vdb
