// ThreadPool lifecycle and placement: the quiesce API (drain/shutdown) the
// scheduler layer relies on, size-aware dispatch and work stealing.
// ThreadPool::parallel_for is covered in test_serving.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "test_support.hpp"

namespace lac {
namespace {

TEST(ThreadPoolQuiesce, ShutdownCompletesAllQueuedWorkThenResubmitWorks) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  // start -> submit: queue far more jobs than workers so some are still
  // queued when shutdown begins; shutdown must complete every one.
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 64; ++i)
    futs.push_back(pool.submit([&ran] {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      ran.fetch_add(1);
    }));
  pool.shutdown();
  EXPECT_EQ(ran.load(), 64);
  for (auto& f : futs) f.get();  // all futures resolved, none abandoned

  // resubmit: the pool restarts its workers lazily after shutdown.
  EXPECT_EQ(pool.submit([] { return 41 + 1; }).get(), 42);
  pool.shutdown();  // idempotent: quiesce again after the restart
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolQuiesce, ShutdownOnNeverStartedPoolIsANoOp) {
  ThreadPool pool(3);
  pool.shutdown();
  pool.drain();
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPoolQuiesce, ConcurrentShutdownCallersBothReturn) {
  for (int round = 0; round < test::scaled(8, 2); ++round) {
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 16; ++i)
      pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        ran.fetch_add(1);
      });
    std::thread other([&pool] { pool.shutdown(); });
    pool.shutdown();
    other.join();
    EXPECT_EQ(ran.load(), 16) << "round " << round;
    EXPECT_EQ(pool.submit([] { return 3; }).get(), 3);  // restartable
  }
}

TEST(ThreadPoolQuiesce, SubmitRacingDrainCompletesEverything) {
  // drain() promises completion of everything queued so far; jobs submitted
  // concurrently extend the wait. Hammer that boundary from a second thread
  // so the sanitizer lanes see drain's idle-predicate racing live submits
  // (the pre-annotation implementation read the queue state under the same
  // mutex, but nothing pinned it -- this does).
  for (int round = 0; round < test::scaled(6, 2); ++round) {
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    std::atomic<bool> go{false};
    std::thread submitter([&] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < 200; ++i)
        pool.submit([&ran] { ran.fetch_add(1); });
    });
    for (int i = 0; i < 50; ++i) pool.submit([&ran] { ran.fetch_add(1); });
    go.store(true);
    pool.drain();  // completes at least the first 50, never wedges
    submitter.join();
    pool.drain();  // now everything is in; the pool must be idle after
    EXPECT_EQ(ran.load(), 250) << "round " << round;
  }
}

TEST(ThreadPoolQuiesce, ShutdownRacingSubmitNeverLosesJobs) {
  // Submits racing a shutdown() land in one of two places: drained by the
  // departing workers, or left queued for the lazily-restarted worker set.
  // Either way no job is lost and neither side wedges.
  for (int round = 0; round < test::scaled(6, 2); ++round) {
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    std::thread submitter([&] {
      for (int i = 0; i < 100; ++i)
        pool.submit([&ran] { ran.fetch_add(1); });
    });
    pool.shutdown();
    submitter.join();
    // The next submit restarts the pool; drain then accounts for every
    // job queued before or during the quiesce.
    pool.submit([&ran] { ran.fetch_add(1); });
    pool.drain();
    EXPECT_EQ(ran.load(), 101) << "round " << round;
  }
}

TEST(ThreadPoolQuiesce, DrainWaitsForCompletionButKeepsWorkers) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 32; ++i)
    pool.submit([&ran] {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      ran.fetch_add(1);
    });
  pool.drain();
  EXPECT_EQ(ran.load(), 32);
  // Workers are still alive: a follow-up burst completes too.
  for (int i = 0; i < 8; ++i) pool.submit([&ran] { ran.fetch_add(1); });
  pool.drain();
  EXPECT_EQ(ran.load(), 40);
}

/// Park `count` workers of `pool` on gates so queue placement, not worker
/// timing, decides what runs when. gates[i] releases blocker i (which
/// worker picked it up is racy and does not matter to the callers).
std::vector<std::promise<void>> park_workers(ThreadPool& pool, int count) {
  std::vector<std::promise<void>> gates(static_cast<std::size_t>(count));
  std::atomic<int> parked{0};
  for (int i = 0; i < count; ++i) {
    std::shared_future<void> go = gates[static_cast<std::size_t>(i)].get_future().share();
    pool.post([&parked, go] {
      parked.fetch_add(1);
      go.wait();
    });
  }
  while (parked.load() < count) std::this_thread::yield();
  return gates;
}

TEST(ThreadPoolDispatch, ShortJobsOvertakeAQueuedLongJob) {
  // The size-aware serving pin: a long (high-cost-hint) job queued *first*
  // must not delay a burst of short jobs queued behind it. Two-choice
  // placement steers the shorts onto the other shard, and even under an
  // adversarial placement the idle worker steals them -- either way every
  // short completes while the long job is still running.
  ThreadPool pool(2);
  std::vector<std::promise<void>> gates = park_workers(pool, 2);
  std::atomic<bool> long_done{false};
  std::atomic<int> shorts_before_long{0};
  std::future<void> long_fut = pool.submit_hinted(1e9, [&long_done] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    long_done.store(true);
  });
  std::vector<std::future<void>> shorts;
  for (int i = 0; i < 8; ++i)
    shorts.push_back(pool.submit_hinted(1.0, [&] {
      if (!long_done.load()) shorts_before_long.fetch_add(1);
    }));
  for (auto& g : gates) g.set_value();
  for (auto& f : shorts) f.get();
  long_fut.get();
  EXPECT_EQ(shorts_before_long.load(), 8);
}

TEST(ThreadPoolSteal, IdleWorkerStealsFromAStalledShard) {
  // Queue equal-cost jobs across both shards, then release only one
  // worker. The other stays parked, so its shard's jobs can complete only
  // by being stolen -- the free worker must clear all four, and the
  // lac.pool.steals counter must record the cross-shard pops.
  obs::Counter& steals = obs::MetricsRegistry::global().counter("lac.pool.steals");
  ThreadPool pool(2);
  std::vector<std::promise<void>> gates = park_workers(pool, 2);
  const std::uint64_t steals_before = steals.value();
  std::vector<std::future<void>> futs;
  std::atomic<int> ran{0};
  for (int i = 0; i < 4; ++i)
    futs.push_back(pool.submit_hinted(100.0, [&ran] { ran.fetch_add(1); }));
  gates[0].set_value();
  for (auto& f : futs) f.get();  // completes with one worker still parked
  EXPECT_EQ(ran.load(), 4);
  EXPECT_GE(steals.value() - steals_before, 2u);  // the stalled shard's pair
  gates[1].set_value();
  pool.drain();
}

TEST(ThreadPoolSteal, StealStressMixedCostsLosesNoJobs) {
  // Submit-racing-drain under stealing: two submitter threads interleave
  // high- and unit-cost jobs across a wide pool while the main thread
  // drains repeatedly. Every job must run exactly once.
  const int per_thread = test::scaled(600, 60);
  for (int round = 0; round < test::scaled(4, 2); ++round) {
    ThreadPool pool(8);
    std::atomic<int> ran{0};
    auto submitter = [&pool, &ran, per_thread] {
      for (int i = 0; i < per_thread; ++i)
        pool.submit_hinted(i % 7 == 0 ? 1e6 : 1.0,
                           [&ran] { ran.fetch_add(1); });
    };
    std::thread a(submitter);
    std::thread b(submitter);
    for (int i = 0; i < 3; ++i) pool.drain();
    a.join();
    b.join();
    pool.drain();
    EXPECT_EQ(ran.load(), 2 * per_thread) << "round " << round;
  }
}

}  // namespace
}  // namespace lac
