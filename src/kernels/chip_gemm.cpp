#include "kernels/chip_gemm.hpp"

#include <cassert>
#include <cmath>

#include "fabric/stream_schedule.hpp"

namespace lac::kernels {
namespace {

/// C += A * B as one fma chain per element in p-order over all kc panels:
/// the MACs the column-block sweeps issue into C(i, j)'s accumulator, in
/// their order (each panel loads the block, runs its kc steps in p-order
/// and drains it back). Column by column, 16 rows at a time held in
/// registers across the p loop, so the row loop vectorises.
LAC_FMA_DISPATCH
void multiply_accumulate(ConstViewD a, ConstViewD b, ViewD c) {
  constexpr index_t kRows = 16;
  const index_t m = c.rows();
  const index_t k = a.cols();
  for (index_t j = 0; j < c.cols(); ++j) {
    double* cj = &c(0, j);
    index_t i = 0;
    for (; i + kRows <= m; i += kRows) {
      double x[kRows];
      for (index_t t = 0; t < kRows; ++t) x[t] = cj[i + t];
      for (index_t p = 0; p < k; ++p) {
        const double* ap = &a(i, p);
        const double bpj = b(p, j);
        for (index_t t = 0; t < kRows; ++t) x[t] = std::fma(ap[t], bpj, x[t]);
      }
      for (index_t t = 0; t < kRows; ++t) cj[i + t] = x[t];
    }
    for (; i < m; ++i)
      for (index_t p = 0; p < k; ++p) cj[i] = std::fma(a(i, p), b(p, j), cj[i]);
  }
}

}  // namespace

ChipGemmResult chip_gemm(const arch::ChipConfig& cfg, index_t mc, index_t kc,
                         ConstViewD a, ConstViewD b, ConstViewD c_in) {
  const int nr = cfg.core.nr;
  const int s = cfg.cores;
  const index_t m = c_in.rows();
  const index_t n = c_in.cols();
  const index_t k = a.cols();
  assert(a.rows() == m && b.rows() == k && b.cols() == n);
  assert(m % (s * nr) == 0 && n % nr == 0 && k % kc == 0);
  const index_t rows_per_core = m / s;
  assert(rows_per_core % mc == 0 && mc % nr == 0 && kc % nr == 0);
  assert((mc / nr) * (kc / nr) <= cfg.core.pe.mem_a_words() && kc <= cfg.core.pe.mem_b_words());

  sim::Chip chip(cfg);
  ChipGemmResult res;

  // The off-chip interface stages the A column panel and the B row panel
  // of each kc panel from external memory once (they are shared data on
  // chip).
  std::vector<sim::time_t_> panels_on_chip;
  sim::time_t_ off_cursor = 0.0;
  for (index_t pp = 0; pp < k; pp += kc) {
    off_cursor = chip.offchip_dma(static_cast<double>(m) * kc, off_cursor);
    off_cursor = chip.offchip_dma(static_cast<double>(kc) * n, off_cursor);
    panels_on_chip.push_back(off_cursor);
  }

  // Each core streams through its own channel of the shared interface, so
  // the cores' timings are independent. Per kc panel and row tile (a
  // segment), a core's C panel is a run of n / nr identical column blocks
  // of mc / nr C blocks each, the accumulator set alternating per C block.
  const index_t blocks = n / nr;
  const index_t per_block = mc / nr;
  for (int core_id = 0; core_id < s; ++core_id) {
    sim::Core& core = chip.core(core_id);
    fabric::StreamSchedule sched(core);
    sim::time_t_ cursor = 0.0;  // the core's in-order DMA cursor
    for (const sim::time_t_ panels_ready : panels_on_chip)
      for (index_t tile = 0; tile < rows_per_core / mc; ++tile) {
        // Resident A tile for this core.
        cursor = chip.shared_dma(core_id, static_cast<double>(mc) * kc,
                                 std::max(cursor, panels_ready));
        // Sweep the n-wide C panel: per nr-column block, load the B panel
        // slice (replicated per PE column), stream each C block through the
        // accumulators, run kc rank-1 updates, stream the result out. Only
        // the timing is simulated here; the values follow in one pass.
        for (index_t jb = 0; jb < blocks; ++jb) {
          cursor = chip.shared_dma(core_id, static_cast<double>(kc) * nr, cursor);
          const sim::time_t_ b_ready = cursor;
          for (index_t ib = 0; ib < per_block; ++ib) {
            const int parity = static_cast<int>((jb * per_block + ib) % 2);
            cursor = chip.shared_dma(core_id, static_cast<double>(nr) * nr, cursor);
            sched.time_accumulators(parity, std::max(cursor, b_ready));
            sched.rank1_timing(parity, mc, ib * nr, 0, kc, b_ready);
            cursor = chip.shared_dma(core_id, static_cast<double>(nr) * nr,
                                     std::max(cursor, sched.accumulators_ready(parity)));
          }
          // Once a block repeats the last one shifted, close the rest in
          // O(1), keeping the parity phase.
          const int last = static_cast<int>((jb * per_block + per_block - 1) % 2);
          const index_t left = blocks - 1 - jb;
          if (jb > 0 && left > 0 && left * per_block % 2 == 0) {
            const sim::time_t_ jump = core.close_blocks(left, last);
            if (jump > 0.0) {
              cursor += jump;
              sched.count_closed_sweeps(left * per_block, kc);
              break;
            }
          }
          core.mark_block(last);
        }
      }
  }

  res.out = to_matrix<double>(c_in);
  multiply_accumulate(a, b, res.out.view());
  res.cycles = units::Cycles(chip.finish_time());
  res.stats = chip.stats();
  res.utilization = static_cast<double>(res.stats.mac_ops) /
                    (res.cycles.value() * s * nr * nr);
  res.offchip_words = static_cast<double>(res.stats.dma_words);
  return res;
}

}  // namespace lac::kernels
