#pragma once
// Per-worker simulation arena: pooled Core instances and reusable kernel
// scratch buffers.
//
// Profiling the serving path (`lac.fabric.sim.*.execute_us` + pool spans)
// showed the sim backend's throughput under a parallel pool limited by
// allocator traffic, not simulated work: every request constructed a full
// nr x nr Core (16 PEs x ~18 KB of zero-initialized local store) plus a
// litter of per-step std::vectors, and eight workers hammering the global
// allocator serialize on it. The arena keeps both thread-local:
//
//  - SimArena::local() pools Core instances per CoreConfig, for single
//    cores (ArenaCore) and a Chip's cores alike. Core::reset() restores
//    the exact fresh-constructed state (zeroed stores, free resources), so
//    a pooled core is byte-identical to a new one -- the serving
//    determinism contract (results independent of pool width and of which
//    worker ran the request) is preserved by construction. Each local
//    store keeps a high-water mark of the words written since its last
//    reset, so a reset zeroes only those: it costs in proportion to what
//    the last request wrote, not the 288 KB of a 4x4 core's stores.
//  - Scratch<T> checks reusable vectors out of a thread-local freelist,
//    replacing the per-iteration event-buffer allocations in the kernel
//    hot loops.
//
// Everything here is thread-local, so there is no locking and no
// cross-thread state; the only globals are the hit/miss counters
// (`lac.sim.arena.*`) that make reuse visible in bench telemetry.
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "arch/configs.hpp"
#include "sim/core.hpp"

namespace lac::sim {

class SimArena {
 public:
  /// The calling worker's arena (constructed on first use).
  static SimArena& local();

  /// A core for `cfg`, reset to fresh-constructed state under the given
  /// bandwidth and accumulator count. Pooled when available, constructed
  /// otherwise.
  std::unique_ptr<Core> acquire(const arch::CoreConfig& cfg,
                                double bw_words_per_cycle, int accumulators);

  /// Return a core to the pool. Every core released here was acquired
  /// here, and a miss builds one only when none is idle, so the pool keeps
  /// per config as many idle cores as the thread has held at once (a
  /// sim::Chip's cores all come back for its next request) and no more.
  void release(std::unique_ptr<Core> core);

  /// Pooled (idle) cores across all configs, for tests.
  std::size_t pooled() const;

 private:
  struct PoolEntry {
    arch::CoreConfig cfg;
    std::vector<std::unique_ptr<Core>> free;
  };
  std::vector<PoolEntry> pool_;
};

/// RAII handle on an arena core: acquires from the calling thread's arena,
/// releases on destruction. Kernels swap `sim::Core core(cfg, bw, n);` for
/// `sim::ArenaCore core(cfg, bw, n);` and pass `core.get()` (or rely on
/// the implicit conversion) -- the schedule-building body is unchanged.
class ArenaCore {
 public:
  ArenaCore(const arch::CoreConfig& cfg, double bw_words_per_cycle,
            int accumulators = 4)
      : core_(SimArena::local().acquire(cfg, bw_words_per_cycle, accumulators)) {}
  ~ArenaCore() { SimArena::local().release(std::move(core_)); }

  ArenaCore(const ArenaCore&) = delete;
  ArenaCore& operator=(const ArenaCore&) = delete;

  Core& get() { return *core_; }
  operator Core&() { return *core_; }

 private:
  std::unique_ptr<Core> core_;
};

namespace detail {
template <typename T>
inline std::vector<std::vector<T>>& scratch_freelist() {
  static thread_local std::vector<std::vector<T>> pool;
  return pool;
}
}  // namespace detail

/// A reusable scratch vector checked out of the calling thread's freelist:
/// sized and value-initialized on checkout (so behavior matches a freshly
/// constructed std::vector), returned with its capacity on destruction.
template <typename T>
class Scratch {
 public:
  explicit Scratch(std::size_t n) {
    auto& pool = detail::scratch_freelist<T>();
    if (!pool.empty()) {
      vec_ = std::move(pool.back());
      pool.pop_back();
    }
    vec_.assign(n, T{});
  }
  ~Scratch() {
    auto& pool = detail::scratch_freelist<T>();
    if (pool.size() < kMaxPooled) pool.push_back(std::move(vec_));
  }

  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  std::vector<T>& vec() { return vec_; }
  T& operator[](std::size_t i) { return vec_[i]; }
  const T& operator[](std::size_t i) const { return vec_[i]; }
  std::size_t size() const { return vec_.size(); }

  /// Re-prime for a new iteration without returning to the freelist.
  void assign(std::size_t n, const T& v = T{}) { vec_.assign(n, v); }

 private:
  /// Deep enough for the worst nesting in one kernel (lattice + row + col
  /// buffers live simultaneously in the factorizations).
  static constexpr std::size_t kMaxPooled = 8;
  std::vector<T> vec_;
};

}  // namespace lac::sim
