#pragma once
// The simulated Linear Algebra Core: an nr x nr mesh of PEs, row/column
// broadcast buses, a bandwidth-limited memory interface to the on-chip
// memory, and a special-function unit (Fig 1.1 / Fig 3.1).
#include <cassert>
#include <cstddef>
#include <optional>
#include <vector>

#include "arch/configs.hpp"
#include "sim/engine.hpp"
#include "sim/local_store.hpp"
#include "sim/mac_pipeline.hpp"
#include "sim/mesh_lanes.hpp"
#include "sim/sfu.hpp"

namespace lac::sim {

/// One processing element: MAC pipeline + MEM-A + MEM-B + register file.
/// The MAC and the store ports are views of lane `lane` of the core's
/// MeshLanes.
struct Pe {
  Pe(const arch::CoreConfig& cfg, MeshLanes& lanes, std::size_t lane);

  /// Re-point the MAC and store ports at lane `lane` of `lanes`.
  void bind(MeshLanes& lanes, std::size_t lane);
  /// Restore fresh-constructed store and register-file contents (the lane
  /// state is reset with the MeshLanes).
  void reset();

  MacPipeline mac;
  LocalStore mem_a;
  LocalStore mem_b;
  RegisterFile rf;
};

class Core {
 public:
  /// `bw_words_per_cycle` is the core <-> on-chip memory bandwidth x of
  /// §3.4; `accumulators` sizes the per-PE accumulator register set.
  Core(const arch::CoreConfig& cfg, double bw_words_per_cycle, int accumulators = 4);
  // The PEs point into the core's lanes.
  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  /// Restore the exact fresh-constructed state for the same config under a
  /// (possibly different) bandwidth and accumulator count: zeroed local
  /// stores, free resources, zero counters. A pooled core run after
  /// reset() is byte-identical to a newly constructed one (sim/arena.hpp
  /// relies on this; tests/test_core_sim.cpp pins it).
  void reset(double bw_words_per_cycle, int accumulators);

  const arch::CoreConfig& config() const { return cfg_; }
  int nr() const { return cfg_.nr; }

  // pe()/broadcast/dma are header-inline: they gate every operation of a
  // kernel schedule and out-of-line calls dominate the sim profile.

  Pe& pe(int row, int col) {
    assert(row >= 0 && row < cfg_.nr && col >= 0 && col < cfg_.nr);
    return pes_[static_cast<std::size_t>(row) * cfg_.nr + col];
  }
  const Pe& pe(int row, int col) const {
    assert(row >= 0 && row < cfg_.nr && col >= 0 && col < cfg_.nr);
    return pes_[static_cast<std::size_t>(row) * cfg_.nr + col];
  }

  /// ---- broadcast communication ----------------------------------------
  /// One-cycle broadcast on row bus `row`; all PEs of the row observe the
  /// value `bus_latency` cycles after the slot is granted.
  TimedVal broadcast_row(int row, TimedVal v) {
    assert(row >= 0 && row < cfg_.nr);
    const time_t_ start = lanes_.row_bus.acquire(static_cast<std::size_t>(row), v.ready, 1.0);
    return {v.v, start + cfg_.bus_latency};
  }
  TimedVal broadcast_col(int col, TimedVal v) {
    assert(col >= 0 && col < cfg_.nr);
    const time_t_ start = col_bus_[static_cast<std::size_t>(col)].acquire(v.ready, 1.0);
    return {v.v, start + cfg_.bus_latency};
  }

  const Resource& col_bus(int col) const {
    assert(col >= 0 && col < cfg_.nr);
    return col_bus_[static_cast<std::size_t>(col)];
  }

  /// The mesh's per-field timing state (the PEs' ports, MACs and
  /// accumulators, and the row buses).
  MeshLanes& lanes() { return lanes_; }
  const MeshLanes& lanes() const { return lanes_; }

  /// ---- memory interface -------------------------------------------------
  /// Stream `words` over the core's memory interface starting no earlier
  /// than `earliest`; returns the completion time. Charged at the
  /// configured words/cycle. Used for loads and stores alike (the column
  /// buses are multiplexed for external transfers, §3.2.1).
  time_t_ dma(double words, time_t_ earliest) {
    if (words <= 0.0) return earliest;
    const time_t_ start = mem_if_.acquire(earliest, words / bw_);
    dma_words_ += static_cast<std::int64_t>(words);
    return start + words / bw_;
  }

  /// ---- special functions -------------------------------------------------
  Sfu& sfu() { return sfu_; }
  /// Issue a special function from PE (row, col): under the Software
  /// option it occupies that PE's MAC; under DiagonalPEs the request is
  /// serviced locally when row == col, otherwise routed over the buses
  /// (one extra hop each way).
  TimedVal special(SfuKind kind, int row, int col, TimedVal x, time_t_ earliest = 0.0);

  /// ---- repeated blocks ----------------------------------------------------
  // A kernel that runs one block of work again and again (CHIP_GEMM's
  // column blocks: C in, a sweep, C out) marks the core after each block it
  // steps. A block's times are max and + of its entry times and fixed
  // durations; the only absolute constant, the 0.0 floor of a MAC's
  // operand max, is dominated once times are positive. So once the last
  // block moved every word it carries into the next by the same delta, each
  // further block is the last one shifted by delta, and on the exactness
  // grid (sim::on_grid) every sum of it is exact.

  /// Record the state after a block whose last sweep wrote accumulator set
  /// `acc`. Records nothing when a block duration is off the grid (then no
  /// run closes).
  void mark_block(int acc);
  /// Close `k` more blocks like the one since mark_block(), whose last
  /// sweep wrote set `acc`, and return the time they take (0 when they do
  /// not close, and nothing changes). The blocks must double-buffer their
  /// sweeps through accumulator sets 0 and 1 and keep their parity phase
  /// over k. They close when every word a block reads before writing it
  /// (the MEM-A, MEM-B and issue-port next_free of every PE, the row buses'
  /// and the memory interface's next_free) and set `acc`'s ready and chain
  /// words (against those of the set the marked block wrote last) moved by
  /// the same delta > 0, and stay on the grid k deltas on. Then those words
  /// and the ready and chain words of both sets move by k * delta, and the
  /// op counts, the bus and memory-interface busy time and ops and the DMA
  /// words gain k times the last block's increment.
  time_t_ close_blocks(std::int64_t k, int acc);

  /// ---- bookkeeping --------------------------------------------------------
  /// Latest completion time over every resource and accumulator: the
  /// makespan of everything issued so far.
  time_t_ finish_time() const;

  /// Activity counts; a bus transfer is one bus acquisition.
  Stats stats() const;
  double bw_words_per_cycle() const { return bw_; }

 private:
  arch::CoreConfig cfg_;
  double bw_;
  MeshLanes lanes_;
  std::vector<Pe> pes_;  ///< flat row-major mesh: one allocation, no per-PE indirection
  std::vector<Resource> col_bus_;
  Resource mem_if_;
  Sfu sfu_;
  std::int64_t dma_words_ = 0;
  /// The state after the last marked block (mark_block); the lanes are
  /// copied in on a core's first mark.
  struct BlockMark {
    std::optional<MeshLanes> lanes;
    Resource mem_if;
    std::int64_t dma_words = 0;
    int acc = -1;  ///< the set the block's last sweep wrote; -1: no mark
  } mark_;
};

}  // namespace lac::sim
