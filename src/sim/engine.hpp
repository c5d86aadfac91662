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
#include <cstdint>

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

/// A structural resource with one in-flight operation slot per cycle
/// (issue port, bus, SRAM port) or a duration-based pipe (DMA engine).
class Resource {
 public:
  /// Claim the resource no earlier than `earliest` for `duration` cycles.
  /// Returns the actual start time.
  time_t_ acquire(time_t_ earliest, time_t_ duration = 1.0) {
    const time_t_ start = std::max(earliest, next_free_);
    next_free_ = start + duration;
    busy_ += duration;
    ++ops_;
    return start;
  }

  /// `k` back-to-back acquire(earliest, duration) calls at once; returns
  /// the first start. Every call after the first starts where the previous
  /// one ended, so the result equals the k single calls whenever the sums
  /// are exact (callers check that their times lie on a dyadic grid).
  time_t_ acquire_n(time_t_ earliest, time_t_ duration, std::int64_t k) {
    const time_t_ start = std::max(earliest, next_free_);
    const time_t_ total = static_cast<time_t_>(k) * duration;
    next_free_ = start + total;
    busy_ += total;
    ops_ += k;
    return start;
  }

  time_t_ next_free() const { return next_free_; }
  time_t_ busy_cycles() const { return busy_; }
  std::int64_t ops() const { return ops_; }
  void reset() { next_free_ = 0.0; busy_ = 0.0; ops_ = 0; }
  /// Fast-forward the resource (e.g. after a barrier).
  void advance_to(time_t_ t) { next_free_ = std::max(next_free_, t); }

 private:
  time_t_ next_free_ = 0.0;
  time_t_ busy_ = 0.0;
  std::int64_t ops_ = 0;
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
