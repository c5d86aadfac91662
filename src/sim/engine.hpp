#pragma once
// Timed-dataflow simulation engine.
//
// The LAC (Ch. 3) has no caches, no dynamic arbitration and lock-step,
// predetermined control: every data movement is known in advance. For such
// hardware a static-schedule simulation is cycle-exact: each value carries
// the cycle at which it becomes available, each structural resource (MAC
// issue port, bus slot, SRAM port, DMA bandwidth) tracks when it is next
// free, and an operation starts at the max of its operand-ready and
// resource-free times. Functional values flow with the timestamps, so the
// simulator simultaneously verifies numerics and yields exact cycle counts.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

// Hardware-FMA dispatch for the simulator's MAC hot paths. Every simulated
// MAC computes std::fma; built for baseline x86-64 that is a call into
// libm. Functions marked LAC_FMA_DISPATCH get a second clone compiled for
// the FMA extension, and the loader picks the clone the CPU supports (no
// flag selects it). IEEE fma is exactly rounded either way, so the bits do
// not depend on the clone. Contraction must stay off so the FMA clone does
// not fuse a multiply and an add that the default clone keeps apart: GCC
// takes that per function from the attribute; Clang has no per-function
// form, so the root CMakeLists builds with -ffp-contract=off. Mark the kernel
// entry points whose inlined MacPipeline ops are hot (tools/lint/lint.py
// flags MAC-issuing files without one). ThreadSanitizer instruments the
// clone resolver, which the loader runs before the TSan runtime is up, so
// TSan builds keep the default code only.
#if defined(__SANITIZE_THREAD__)
#define LAC_FMA_NO_CLONES
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LAC_FMA_NO_CLONES
#endif
#endif
#if defined(LAC_FMA_NO_CLONES) || !defined(__x86_64__) || !defined(__GNUC__)
#define LAC_FMA_DISPATCH
#elif defined(__clang__)
#define LAC_FMA_DISPATCH __attribute__((target_clones("fma", "default")))
#else
#define LAC_FMA_DISPATCH \
  __attribute__((target_clones("fma", "default"), optimize("fp-contract=off")))
#endif

namespace lac::sim {

/// Simulated time in cycles. Fractional values arise from bandwidth-limited
/// transfers (e.g. 0.5 words/cycle); compute ops land on integer boundaries.
using time_t_ = double;

/// A value travelling through the datapath with its availability time.
struct TimedVal {
  double v = 0.0;
  time_t_ ready = 0.0;
};

inline TimedVal at(double v, time_t_ ready) { return {v, ready}; }

/// The acquire recurrence of every structural resource: claim a slot no
/// earlier than `earliest` for `duration` cycles; returns the start.
inline time_t_ acquire_slot(time_t_& next_free, time_t_& busy, std::int64_t& ops,
                            time_t_ earliest, time_t_ duration) {
  const time_t_ start = std::max(earliest, next_free);
  next_free = start + duration;
  busy += duration;
  ++ops;
  return start;
}

/// A structural resource with one in-flight operation slot per cycle
/// (issue port, bus, SRAM port) or a duration-based pipe (DMA engine).
class Resource {
 public:
  /// Claim the resource no earlier than `earliest` for `duration` cycles.
  /// Returns the actual start time.
  time_t_ acquire(time_t_ earliest, time_t_ duration = 1.0) {
    return acquire_slot(next_free_, busy_, ops_, earliest, duration);
  }

  time_t_ next_free() const { return next_free_; }
  time_t_ busy_cycles() const { return busy_; }
  std::int64_t ops() const { return ops_; }
  void reset() { next_free_ = 0.0; busy_ = 0.0; ops_ = 0; }

 private:
  time_t_ next_free_ = 0.0;
  time_t_ busy_ = 0.0;
  std::int64_t ops_ = 0;
};

/// `n` like resources (a mesh's row buses) as per-field arrays: lane i's
/// next_free, busy and ops sit at index i of three contiguous arrays, so a
/// sweep can step many lanes at once in place (fabric/stream_schedule.cpp)
/// while per-op callers use acquire(i).
struct ResourceLanes {
  explicit ResourceLanes(std::size_t n) : next_free(n, 0.0), busy(n, 0.0), ops(n, 0) {}

  time_t_ acquire(std::size_t i, time_t_ earliest, time_t_ duration = 1.0) {
    return acquire_slot(next_free[i], busy[i], ops[i], earliest, duration);
  }
  void reset() {
    std::fill(next_free.begin(), next_free.end(), 0.0);
    std::fill(busy.begin(), busy.end(), 0.0);
    std::fill(ops.begin(), ops.end(), 0);
  }

  std::vector<time_t_> next_free;
  std::vector<time_t_> busy;
  std::vector<std::int64_t> ops;
};

/// Activity counters aggregated over a kernel run; the power model turns
/// these into energy via per-op energies.
struct Stats {
  std::int64_t mac_ops = 0;        ///< MAC issues (1 MAC = 2 flops)
  std::int64_t mul_ops = 0;        ///< plain multiplies / adds on the MAC
  std::int64_t cmp_ops = 0;        ///< comparator operations (pivot search)
  std::int64_t mem_a_reads = 0;
  std::int64_t mem_a_writes = 0;
  std::int64_t mem_b_reads = 0;
  std::int64_t mem_b_writes = 0;
  std::int64_t rf_reads = 0;
  std::int64_t rf_writes = 0;
  std::int64_t row_bus_xfers = 0;
  std::int64_t col_bus_xfers = 0;
  std::int64_t sfu_ops = 0;
  std::int64_t dma_words = 0;      ///< words moved over the memory interface

  std::int64_t flops() const { return 2 * mac_ops + mul_ops; }

  Stats& operator+=(const Stats& o) {
    mac_ops += o.mac_ops; mul_ops += o.mul_ops; cmp_ops += o.cmp_ops;
    mem_a_reads += o.mem_a_reads; mem_a_writes += o.mem_a_writes;
    mem_b_reads += o.mem_b_reads; mem_b_writes += o.mem_b_writes;
    rf_reads += o.rf_reads; rf_writes += o.rf_writes;
    row_bus_xfers += o.row_bus_xfers; col_bus_xfers += o.col_bus_xfers;
    sfu_ops += o.sfu_ops; dma_words += o.dma_words;
    return *this;
  }
};

}  // namespace lac::sim
