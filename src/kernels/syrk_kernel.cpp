#include "kernels/syrk_kernel.hpp"

#include <cassert>

#include "fabric/stream_schedule.hpp"
#include "sim/arena.hpp"

namespace lac::kernels {

using fabric::StreamSchedule;
using fabric::mem_a_addr;

namespace {

/// Diagonal-step of the blocked algorithm: run the transpose-overlapped
/// rank-1 loop for the row panel `ib` of A (global rows ib*nr..ib*nr+nr-1),
/// updating accumulators `parity`, and capture the transposed panel into
/// MEM-B slot `slot` (replicated per PE column). Returns last issue time.
LAC_FMA_DISPATCH
sim::time_t_ syrk_diag_step(sim::Core& core, ConstViewD a, index_t ib, int parity,
                            index_t slot_base, sim::time_t_ gate) {
  const int nr = core.nr();
  const index_t mc = a.rows();
  const index_t kc = a.cols();
  sim::time_t_ last = gate;
  // Hoisted out of the p loop: all nr entries are rewritten per iteration.
  sim::Scratch<sim::TimedVal> row_val(static_cast<std::size_t>(nr));
  for (index_t p = 0; p < kc; ++p) {
    const int owner = static_cast<int>(p % nr);
    // Row broadcast of a_p (elements of the diagonal row panel).
    for (int r = 0; r < nr; ++r) {
      sim::TimedVal av = core.pe(r, owner).mem_a.read(
          mem_a_addr(ib * nr + r, p, mc, nr), gate);
      row_val[static_cast<std::size_t>(r)] = core.broadcast_row(r, av);
    }
    // Transpose: diagonal PE c re-broadcasts element c down column c; all
    // PEs of the column capture it into MEM-B (replicated A^T panel).
    for (int c = 0; c < nr; ++c) {
      sim::TimedVal tv = core.broadcast_col(c, row_val[static_cast<std::size_t>(c)]);
      for (int r = 0; r < nr; ++r) {
        sim::Pe& pe = core.pe(r, c);
        pe.mem_b.write(slot_base + p, tv.v, tv.ready);
        pe.mac.mac_into_acc(parity, row_val[static_cast<std::size_t>(r)], tv);
      }
      last = std::max(last, tv.ready);
    }
  }
  return last;
}

}  // namespace

KernelResult syrk_inner(const arch::CoreConfig& cfg, ConstViewD a, ConstViewD c_in) {
  const int nr = cfg.nr;
  assert(a.rows() == nr && c_in.rows() == nr && c_in.cols() == nr);
  sim::ArenaCore arena(cfg, 1e9, 1);
  sim::Core& core = arena.get();
  StreamSchedule sched(core);
  sched.stage_resident(a);
  sched.load_accumulators(0, 0.0, [&](int r, int c) { return c_in(r, c); });

  syrk_diag_step(core, a, 0, 0, 0, 0.0);

  KernelResult res;
  res.out = MatrixD(nr, nr);
  const double finish =
      sched.drain_accumulators(0, [&](int r, int c, double v) { res.out(r, c) = v; });
  res.cycles = units::Cycles(std::max(finish, core.finish_time()));
  res.stats = core.stats();
  res.utilization = static_cast<double>(res.stats.mac_ops) / (res.cycles.value() * nr * nr);
  return res;
}

KernelResult syrk_core(const arch::CoreConfig& cfg, double bw_words_per_cycle,
                       ConstViewD a, ConstViewD c_in) {
  const int nr = cfg.nr;
  const index_t mc = a.rows();
  const index_t kc = a.cols();
  assert(mc % nr == 0 && c_in.rows() == mc && c_in.cols() == mc);

  sim::ArenaCore arena(cfg, bw_words_per_cycle, 2);
  sim::Core& core = arena.get();
  StreamSchedule sched(core);
  const sim::time_t_ a_done = sched.stage_resident(a);

  KernelResult res;
  res.out = to_matrix<double>(c_in);
  const index_t mb = mc / nr;
  sim::time_t_ finish = a_done;
  int parity = 0;

  for (index_t i = 0; i < mb; ++i) {
    // (1a/1b) diagonal block SYRK + capture of A1^T into MEM-B.
    const sim::time_t_ c_diag_in = sched.dma(static_cast<double>(nr) * nr);
    sched.load_accumulators(parity, c_diag_in, [&](int r, int c) {
      return res.out(i * nr + r, i * nr + c);
    });
    syrk_diag_step(core, a, i, parity, 0, c_diag_in);
    const sim::time_t_ diag_ready =
        sched.drain_accumulators(parity, [&](int r, int c, double v) {
          if (r >= c) res.out(i * nr + r, i * nr + c) = v;  // lower only
        });
    sched.dma_after(static_cast<double>(nr) * (nr + 1) / 2, diag_ready);
    parity ^= 1;

    // (2) GEMM updates C(l, i) += A_l * A1^T for l > i, using the captured
    // transposed panel as the replicated "B" operand.
    for (index_t l = i + 1; l < mb; ++l) {
      const sim::time_t_ c_in_done = sched.dma(static_cast<double>(nr) * nr);
      sched.load_accumulators(parity, c_in_done, [&](int r, int c) {
        return res.out(l * nr + r, i * nr + c);
      });
      sched.rank1_update(parity, 0, mc, l * nr, 0, kc, 0, c_in_done);
      const sim::time_t_ block_ready =
          sched.drain_accumulators(parity, [&](int r, int c, double v) {
            res.out(l * nr + r, i * nr + c) = v;
          });
      finish = std::max(finish,
                        sched.dma_after(static_cast<double>(nr) * nr, block_ready));
      parity ^= 1;
    }
    finish = std::max(finish, sched.cursor());
  }

  res.cycles = units::Cycles(std::max(finish, core.finish_time()));
  res.stats = core.stats();
  // Useful work: only the lower triangle of C counts.
  const double useful = static_cast<double>(mc) * (mc + 1) / 2.0 * kc;
  res.utilization = useful / (res.cycles.value() * nr * nr);
  return res;
}

}  // namespace lac::kernels
