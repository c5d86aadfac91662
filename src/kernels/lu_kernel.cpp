#include "kernels/lu_kernel.hpp"

#include <cassert>
#include <cmath>
#include <vector>

#include "fabric/stream_schedule.hpp"
#include "sim/arena.hpp"

namespace lac::kernels {

LAC_FMA_DISPATCH
LuResult lu_panel(const arch::CoreConfig& cfg, ConstViewD a) {
  const int nr = cfg.nr;
  const index_t k = a.rows();
  assert(a.cols() == nr && k % nr == 0 && k >= nr);
  const bool cmp_ext = cfg.pe.extensions.comparator;

  sim::ArenaCore arena(cfg, 1e9, 1);
  sim::Core& core = arena.get();
  // Panel element (i, j) lives on PE(i % nr, j), local fragment index i/nr.
  // We keep the values in a timed lattice; MEM-A port charges are applied
  // on every fragment access.
  sim::Scratch<sim::TimedVal> tv(static_cast<std::size_t>(k * nr));
  auto at2 = [&](index_t i, index_t j) -> sim::TimedVal& {
    return tv[static_cast<std::size_t>(i * nr + j)];
  };
  for (index_t i = 0; i < k; ++i)
    for (int j = 0; j < nr; ++j) at2(i, j) = sim::at(a(i, j), 0.0);
  fabric::StreamSchedule(core).stage_panel(a);

  LuResult out;
  out.pivots.resize(static_cast<std::size_t>(nr));

  // Per-step buffers hoisted out of the elimination loop: each step fully
  // rewrites the entries it reads.
  sim::Scratch<sim::TimedVal> cand(static_cast<std::size_t>(nr));
  std::vector<index_t> cand_idx(static_cast<std::size_t>(nr), -1);
  sim::Scratch<sim::TimedVal> urow(static_cast<std::size_t>(nr));
  for (int step = 0; step < nr; ++step) {
    // ---- S1: pivot search down column `step`, rows >= step. ------------
    // Each PE row scans its local fragment with the comparator (or the
    // MAC-emulated compare), then the nr candidates reduce over the
    // column bus.
    cand_idx.assign(static_cast<std::size_t>(nr), -1);
    for (int r = 0; r < nr; ++r) {
      sim::TimedVal best = sim::at(0.0, 0.0);
      index_t best_i = -1;
      for (index_t i = r; i < k; i += nr) {
        if (i < step) continue;
        sim::Pe& pe = core.pe(r, step);
        // Fragment read from MEM-A (port charge) feeding the comparator.
        sim::TimedVal v = core.pe(r, step).mem_a.read(i / nr, at2(i, step).ready);
        v.v = at2(i, step).v;
        sim::TimedVal m = pe.mac.compare_abs_max(v, best, cmp_ext);
        if (best_i < 0 || std::abs(v.v) > std::abs(best.v)) best_i = i;
        best = {std::abs(v.v) > std::abs(best.v) ? v.v : best.v, m.ready};
      }
      cand[static_cast<std::size_t>(r)] = best;
      cand_idx[static_cast<std::size_t>(r)] = best_i;
    }
    // Column-bus reduction of the nr candidates (every PE row sees all).
    sim::TimedVal winner = sim::at(0.0, 0.0);
    index_t piv = -1;
    for (int r = 0; r < nr; ++r) {
      sim::TimedVal b = core.broadcast_col(step, cand[static_cast<std::size_t>(r)]);
      if (cand_idx[static_cast<std::size_t>(r)] < 0) continue;
      if (piv < 0 || std::abs(b.v) > std::abs(winner.v)) {
        // Tie-break on the smaller row index, matching the reference scan.
        if (piv < 0 || std::abs(b.v) > std::abs(winner.v)) {
          winner = {b.v, std::max(winner.ready, b.ready)};
          piv = cand_idx[static_cast<std::size_t>(r)];
        }
      } else {
        winner.ready = std::max(winner.ready, b.ready);
      }
    }
    assert(piv >= 0);
    out.pivots[static_cast<std::size_t>(step)] = piv;

    // ---- S2: reciprocal of the pivot; row swap overlapped on the buses.
    sim::TimedVal inv = core.special(sim::SfuKind::Recip, step % nr, step % nr,
                                     sim::at(at2(piv, step).v, winner.ready));
    if (piv != step) {
      for (int j = 0; j < nr; ++j) {
        // One column-bus transfer each way per column.
        sim::TimedVal up = core.broadcast_col(j, at2(piv, j));
        sim::TimedVal down = core.broadcast_col(j, at2(step, j));
        at2(step, j) = up;
        at2(piv, j) = down;
      }
    }

    // ---- S3: scale the column below the pivot. --------------------------
    sim::TimedVal inv_b = core.broadcast_col(step, inv);
    for (index_t i = step + 1; i < k; ++i) {
      sim::Pe& pe = core.pe(static_cast<int>(i % nr), step);
      at2(i, step) = pe.mac.mul(at2(i, step), inv_b);
    }

    // ---- S4: rank-1 update of the trailing panel. ------------------------
    // u row broadcast down the columns; l fragments broadcast along rows.
    for (int j = step + 1; j < nr; ++j) urow[static_cast<std::size_t>(j)] = core.broadcast_col(j, at2(step, j));
    for (index_t i = step + 1; i < k; ++i) {
      const int r = static_cast<int>(i % nr);
      sim::TimedVal l_b = core.broadcast_row(r, at2(i, step));
      l_b.v = -l_b.v;
      for (int j = step + 1; j < nr; ++j) {
        sim::Pe& pe = core.pe(r, j);
        at2(i, j) = pe.mac.fma(l_b, urow[static_cast<std::size_t>(j)], at2(i, j));
      }
    }
  }

  KernelResult& res = out.kernel;
  res.out = MatrixD(k, nr);
  double finish = 0.0;
  for (index_t i = 0; i < k; ++i)
    for (int j = 0; j < nr; ++j) {
      res.out(i, j) = at2(i, j).v;
      finish = std::max(finish, at2(i, j).ready);
    }
  res.cycles = units::Cycles(std::max(finish, core.finish_time()));
  res.stats = core.stats();
  const double useful = static_cast<double>(k) * nr * nr / 2.0;
  res.utilization = useful / (res.cycles.value() * nr * nr);
  return out;
}

}  // namespace lac::kernels
