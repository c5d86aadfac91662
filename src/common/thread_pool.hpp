#pragma once
// Persistent work-queue thread pool for the serving layer.
//
// The one way concurrent work is dispatched in this tree. The ThreadPool
// keeps a fixed set of workers alive across calls (started lazily on first
// use, so merely constructing one -- or linking the shared instance --
// costs nothing). `submit` returns a std::future for any callable;
// `parallel_for` runs index-addressed work (worker-count clamping, first
// exception rethrown on the caller) on the same persistent workers, so a
// sweep or batch pays no per-call thread spawn.
//
// Queueing is sharded: each worker owns a deque (its shard), and jobs are
// placed by two-choice cost balancing -- every job carries a cost hint
// (serving passes the model/CostCache cycle estimate; un-hinted jobs count
// as one unit), and a new job goes to the cheaper of two round-robin
// candidate shards. Idle workers steal the oldest job from the most loaded
// shard. The combination is what keeps tail latency flat under mixed
// traffic: a short model job is never placed behind a queued long sim job
// (placement sees the backlog cost), and even a misplaced one is stolen by
// the first worker to go idle.
//
// Locking: each shard has its own lac::Mutex guarding only that deque; the
// global `mu_` guards lifecycle state (workers, stop/quiesce flags) and
// the sleep/wake protocol. Aggregate counts (`queued_`, `outstanding_`,
// shard backlog costs) are atomics. Everything mutex-guarded is annotated
// for Clang's thread-safety analysis (see common/thread_annotations.hpp):
// a dedicated CI lane compiles with -Wthread-safety -Werror.
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/mutex.hpp"

namespace lac::obs {
class Gauge;
}

namespace lac {

class ThreadPool {
 public:
  /// `threads` = 0 sizes the pool to the hardware concurrency (min 1).
  /// Workers are not started until the first job is posted.
  explicit ThreadPool(unsigned threads = 0);

  /// Drains nothing: queued jobs that have not started are discarded, but
  /// running jobs complete before the workers join. Final per-shard queue
  /// depths are published through the `lac.pool.shard<i>.queue_depth`
  /// gauges before the queues are discarded.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Process-wide pool shared by the serving layer and parallel sweeps.
  /// Lazily constructed on first use.
  static ThreadPool& shared();

  /// Worker count the pool was sized to.
  unsigned size() const { return target_; }

  /// Queue a callable; the returned future carries its result or exception.
  template <typename F, typename R = std::invoke_result_t<std::decay_t<F>>>
  std::future<R> submit(F&& f) {
    return submit_hinted(0.0, std::forward<F>(f));
  }

  /// submit() with a relative cost hint (any monotone proxy for runtime --
  /// the serving layer passes predicted cycles). Hints only steer shard
  /// placement; they never reorder jobs within a shard, so results must
  /// not (and do not) depend on them.
  template <typename F, typename R = std::invoke_result_t<std::decay_t<F>>>
  std::future<R> submit_hinted(double cost_hint, F&& f) {
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    post_hinted([task] { (*task)(); }, cost_hint);
    return fut;
  }

  /// Fire-and-forget: queue a job with no future (the scheduler's dispatch
  /// loops don't need one). The job must not throw.
  void post(std::function<void()> job) { post_hinted(std::move(job), 0.0); }
  void post_hinted(std::function<void()> job, double cost_hint);

  /// Block until every job queued so far has been taken *and* completed
  /// (the pool is momentarily idle). Jobs submitted concurrently extend
  /// the wait; the workers stay up. Publishes per-shard queue depths.
  void drain();

  /// Quiesce deterministically: complete all outstanding work, join the
  /// workers, and return the pool to its not-started state, so a later
  /// submit lazily restarts a fresh worker set. Safe to call repeatedly
  /// (a no-op on a never-started pool) and safe to race with concurrent
  /// submits: jobs posted while the workers are joining are queued and
  /// run when the next submit restarts the pool.
  void shutdown();

  /// Run fn(i) for i in [0, n) across the pool, the calling thread
  /// participating as one worker (so progress never depends on pool
  /// availability, even when every pool thread is busy elsewhere).
  /// `max_workers` caps the total worker count (0 = pool size, 1 = serial);
  /// results must never depend on it. Exceptions thrown by fn are captured,
  /// remaining iterations are abandoned (fail-fast), and the first
  /// exception is rethrown here after all in-flight iterations finish.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    unsigned max_workers = 0);

  /// Total jobs queued across all shards right now (tests / telemetry).
  std::size_t queued() const { return queued_.load(std::memory_order_relaxed); }

 private:
  /// One queued job plus its post() timestamp and placement cost: the
  /// observability layer's `lac.pool.dequeue_wait_us` histogram measures
  /// enqueue -> dequeue; the cost is subtracted from the shard backlog on
  /// dequeue.
  struct QueuedJob {
    std::function<void()> fn;
    std::uint64_t enqueue_ns = 0;
    std::int64_t cost = 1;
  };

  /// A per-worker queue. `cost` mirrors the summed hint cost of the queued
  /// jobs so placement and steal victim selection can compare shards
  /// without taking their locks. Owner pops and steals both take the
  /// oldest job (FIFO): latency order beats cache affinity for a serving
  /// pool, and it keeps the no-reordering guarantee trivial.
  struct Shard {
    Mutex mu;
    std::deque<QueuedJob> queue LAC_GUARDED_BY(mu);
    std::atomic<std::int64_t> cost{0};
    obs::Gauge* depth = nullptr;  ///< lac.pool.shard<i>.queue_depth
  };

  void worker_loop(unsigned me);
  void start_locked() LAC_REQUIRES(mu_);
  bool pop_from(unsigned shard, QueuedJob& out);
  void run_job(QueuedJob&& job);
  void publish_depths();

  unsigned target_ = 1;  ///< immutable after construction

  /// Fixed at construction (one per worker), so shard access needs no
  /// global lock. unique_ptr keeps Shard addresses stable in the vector.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> rr_{0};        ///< round-robin placement cursor
  std::atomic<std::size_t> queued_{0};      ///< jobs sitting in shard queues
  std::atomic<std::size_t> outstanding_{0};  ///< posted, not yet completed
  std::atomic<unsigned> sleepers_{0};       ///< workers blocked on cv_

  Mutex mu_;
  CondVar cv_;       ///< work available / stop requested
  CondVar idle_cv_;  ///< outstanding work hit zero / quiesce finished
  std::vector<std::thread> workers_ LAC_GUARDED_BY(mu_);
  /// Lock-free mirror of started_ so the post fast path skips mu_ entirely
  /// once the workers are up.
  std::atomic<bool> started_flag_{false};
  bool started_ LAC_GUARDED_BY(mu_) = false;
  bool stop_ LAC_GUARDED_BY(mu_) = false;
  bool quiescing_ LAC_GUARDED_BY(mu_) = false;  ///< a shutdown() is mid-join
};

}  // namespace lac
