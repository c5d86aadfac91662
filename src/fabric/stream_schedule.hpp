#pragma once
// Shared streaming-schedule builder for the LAC kernels.
//
// Every level-3 kernel on the fabric follows the same §3.3/§3.4 skeleton:
// a resident operand lives 2D-round-robin in the PE MEM-A stores, panels
// of the streamed operand are replicated per PE column in MEM-B, nr x nr
// output blocks cycle through the MAC accumulators (double-buffered by
// parity) while rank-1 updates sweep the broadcast buses, and every word
// in or out is charged on the bandwidth-limited memory interface behind an
// in-order DMA cursor. This class owns that boilerplate so each kernel in
// src/kernels reduces to its schedule-specific inner loop.
#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/matrix.hpp"
#include "sim/core.hpp"

namespace lac::fabric {

/// Local MEM-A address of element (i, p) of a `rows`-row resident operand
/// stored 2D round-robin on the nr x nr mesh: PE(i % nr, p % nr) holds the
/// fragment word (i/nr) + (rows/nr)*(p/nr).
inline index_t mem_a_addr(index_t i, index_t p, index_t rows, int nr) {
  return i / nr + (rows / nr) * (p / nr);
}

/// Precomputed SoA form of one rank-1 update sweep: the owner column and
/// the per-PE MEM-A addresses of every step, flattened into two parallel
/// arrays (structure-of-arrays, not one struct per step). The plan is the
/// schedule-relevant projection of (kernel, shape, arch) -- everything a
/// sweep derives from the geometry and nothing it derives from the data --
/// so repeat shapes replay a cached plan instead of re-deriving addresses
/// (cached thread-locally next to the CostCache memo, see
/// stream_schedule.cpp; `lac.fabric.schedule.plan_hits`/`plan_misses`
/// count reuse).
struct Rank1Plan {
  std::vector<int> owner;       ///< owner column of step s (= (p_begin+s) % nr)
  std::vector<index_t> a_addr;  ///< a_base-relative address, [s * nr + r]
  std::vector<index_t> reads;   ///< steps column o owns (MEM-A reads per row)
};

/// Geometry key of one rank-1 sweep: every field a plan's addresses depend
/// on, nothing else (values stream through the plan unchanged).
struct Rank1PlanKey {
  int nr = 0;
  index_t rows = 0;
  index_t row0 = 0;
  index_t p_begin = 0;
  index_t p_end = 0;
  bool operator==(const Rank1PlanKey&) const = default;
};

class StreamSchedule {
 public:
  /// Builds schedules on `core`; the in-order DMA cursor starts at `start`.
  explicit StreamSchedule(sim::Core& core, sim::time_t_ start = 0.0)
      : core_(core), cursor_(start) {}
  /// Adds this schedule's sweep counts to the `lac.fabric.schedule.*`
  /// counters.
  ~StreamSchedule();
  StreamSchedule(const StreamSchedule&) = delete;
  StreamSchedule& operator=(const StreamSchedule&) = delete;

  sim::Core& core() { return core_; }
  int nr() const { return core_.nr(); }

  // ---- in-order DMA cursor ----------------------------------------------
  sim::time_t_ cursor() const { return cursor_; }
  void set_cursor(sim::time_t_ t) { cursor_ = t; }
  /// Stream `words` over the memory interface behind everything already
  /// queued; advances and returns the cursor (= completion time).
  sim::time_t_ dma(double words);
  /// Same, but no earlier than `earliest` (e.g. a pipeline-drain time).
  sim::time_t_ dma_after(double words, sim::time_t_ earliest);

  // ---- resident MEM-A operand -------------------------------------------
  /// Place an operand round-robin into MEM-A at `base` without charging the
  /// interface (the caller streams the words explicitly -- e.g. trickled in
  /// with spare bandwidth under full overlap).
  void poke_resident(ConstViewD a, index_t base = 0);
  /// Place and charge the operand serially at the cursor.
  sim::time_t_ stage_resident(ConstViewD a, index_t base = 0);
  /// Lower-triangular resident operand: only i >= p is placed and only
  /// rows*(rows+1)/2 words are charged (TRSM / Cholesky panels).
  sim::time_t_ stage_resident_lower(ConstViewD l);
  /// Factorization panel layout: element (i, j) of a k x nr panel lives on
  /// PE(i % nr, j), fragment i/nr (LU / QR panel kernels).
  sim::time_t_ stage_panel(ConstViewD a);

  // ---- replicated MEM-B panels ------------------------------------------
  // The callback-taking helpers are templates on the callable: they run
  // once per output block in the kernel hot loops, and a std::function per
  // call would cost a heap allocation plus nr^2 indirect calls.

  /// Replicate `value(p, c)` into MEM-B word slot_base + p of every PE of
  /// column c, for p in [0, kc). Placement only; the panel's transfer is
  /// charged by the caller (chunked, to interleave with latency-critical
  /// C-block streams).
  template <typename ValueFn>
  void stage_panel_b(index_t slot_base, index_t kc, const ValueFn& value) {
    const int nr = core_.nr();
    for (index_t p = 0; p < kc; ++p)
      for (int c = 0; c < nr; ++c) {
        const double v = value(p, c);
        for (int r = 0; r < nr; ++r) core_.pe(r, c).mem_b.poke(slot_base + p, v);
      }
  }

  // ---- accumulator-blocked output ---------------------------------------
  /// Load an nr x nr block into accumulator set `parity`, every word timed
  /// `ready` (typically its C-in DMA completion).
  template <typename ValueFn>
  void load_accumulators(int parity, sim::time_t_ ready, const ValueFn& value) {
    const int nr = core_.nr();
    for (int r = 0; r < nr; ++r)
      for (int c = 0; c < nr; ++c)
        core_.pe(r, c).mac.set_acc(parity, sim::at(value(r, c), ready));
  }
  /// Drain accumulator set `parity` through `sink(r, c, value)`; returns
  /// the pipeline-drain completion (the earliest the block may stream out).
  template <typename SinkFn>
  sim::time_t_ drain_accumulators(int parity, const SinkFn& sink) {
    const int nr = core_.nr();
    sim::time_t_ ready = 0.0;
    for (int r = 0; r < nr; ++r)
      for (int c = 0; c < nr; ++c) {
        sim::TimedVal v = core_.pe(r, c).mac.read_acc(parity);
        sink(r, c, v.v);
        ready = std::max(ready, v.ready);
      }
    return ready;
  }

  // ---- rank-1 update sweeps ---------------------------------------------
  /// p_end - p_begin rank-1 updates into accumulator set `parity`: for each
  /// p the owner column broadcasts resident column p (rows row0..row0+nr-1
  /// of the operand staged at `a_base` with `rows` total rows) on the row
  /// buses, and every PE pairs it with replicated MEM-B word
  /// slot + (p - p_begin). Reads are gated at `gate`; `negate` subtracts.
  void rank1_update(int parity, index_t a_base, index_t rows, index_t row0,
                    index_t p_begin, index_t p_end, index_t slot,
                    sim::time_t_ gate, bool negate = false);

 private:
  /// Sweep counts, added to the process-wide counters once, when the
  /// schedule is destroyed (a sharded atomic add per sweep costs as much
  /// as stepping a short one).
  struct SweepCounts {
    std::uint64_t plan_hits = 0;
    std::uint64_t plan_misses = 0;
    std::uint64_t ff_steps = 0;     ///< row-steps closed in steady state
    std::uint64_t exact_steps = 0;  ///< row-steps stepped exactly
  };

  sim::Core& core_;
  sim::time_t_ cursor_;
  /// The last sweep's plan and key. The plan is shared with the
  /// thread-local plan cache, so a cache restart cannot drop it.
  Rank1PlanKey memo_key_;
  std::shared_ptr<const Rank1Plan> memo_plan_;
  SweepCounts counts_;
};

}  // namespace lac::fabric
