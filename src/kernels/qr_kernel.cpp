#include "kernels/qr_kernel.hpp"

#include <cassert>
#include <cmath>

#include "fabric/stream_schedule.hpp"
#include "sim/arena.hpp"

namespace lac::kernels {

LAC_FMA_DISPATCH
QrResult qr_panel(const arch::CoreConfig& cfg, ConstViewD a) {
  const int nr = cfg.nr;
  const index_t k = a.rows();
  assert(a.cols() == nr && k % nr == 0 && k >= nr);

  sim::ArenaCore arena(cfg, 1e9, 2);
  sim::Core& core = arena.get();
  // Panel element (i, j) on PE(i % nr, j); timed lattice as in LU.
  sim::Scratch<sim::TimedVal> tv(static_cast<std::size_t>(k * nr));
  auto at2 = [&](index_t i, index_t j) -> sim::TimedVal& {
    return tv[static_cast<std::size_t>(i * nr + j)];
  };
  for (index_t i = 0; i < k; ++i)
    for (int j = 0; j < nr; ++j) at2(i, j) = sim::at(a(i, j), 0.0);
  fabric::StreamSchedule(core).stage_panel(a);

  QrResult out;
  out.taus.reserve(static_cast<std::size_t>(nr));

  // Hoisted w^T buffer: columns step+1..nr-1 are rewritten every step.
  sim::Scratch<sim::TimedVal> w(static_cast<std::size_t>(nr));
  for (int step = 0; step < nr; ++step) {
    // ---- chi2 = ||a21||: partial inner products per PE row of column
    // `step`, then a column-bus reduce-all (Fig 6.4 pattern). -------------
    sim::TimedVal ss = sim::at(0.0, 0.0);
    for (int r = 0; r < nr; ++r) {
      sim::Pe& pe = core.pe(r, step);
      sim::TimedVal part = sim::at(0.0, 0.0);
      for (index_t i = step + 1 + ((r - (step + 1)) % nr + nr) % nr; i < k; i += nr) {
        if (static_cast<int>(i % nr) != r) continue;
        pe.mem_a.read(i / nr, at2(i, step).ready);
        part = pe.mac.fma(at2(i, step), at2(i, step), part);
      }
      sim::TimedVal b = core.broadcast_col(step, part);
      ss = core.pe(step % nr, step).mac.add(ss, b);
    }
    const double chi2 = std::sqrt(ss.v);

    // ---- Householder scalars (Table 6.1, efficient formulation). -------
    sim::TimedVal alpha = at2(step, step);
    const double norm_x = std::hypot(alpha.v, chi2);
    const double rho = alpha.v >= 0.0 ? -norm_x : norm_x;
    const double nu = alpha.v - rho;
    // sqrt + reciprocal on the SFU: chargeable latencies.
    sim::TimedVal root = core.special(sim::SfuKind::Sqrt, step % nr, step, ss,
                                      std::max(ss.ready, alpha.ready));
    sim::TimedVal inv_nu = core.special(sim::SfuKind::Recip, step % nr, step,
                                        sim::at(nu, root.ready));
    at2(step, step) = sim::at(rho, inv_nu.ready);
    out.taus.push_back(0.0);  // filled after u2 is formed

    // ---- u2 = a21 / nu (scale down the column). -------------------------
    sim::TimedVal inv_b = core.broadcast_col(step, inv_nu);
    sim::TimedVal chi2_scaled_t = sim::at(0.0, inv_b.ready);
    for (index_t i = step + 1; i < k; ++i) {
      sim::Pe& pe = core.pe(static_cast<int>(i % nr), step);
      at2(i, step) = pe.mac.mul(at2(i, step), inv_b);
      chi2_scaled_t.ready = std::max(chi2_scaled_t.ready, at2(i, step).ready);
    }
    const double chi2_scaled = chi2 / std::abs(nu);
    const double tau = (1.0 + chi2_scaled * chi2_scaled) / 2.0;
    out.taus.back() = tau;

    if (step + 1 >= nr) continue;

    // ---- w^T = (a12^T + u2^T A22) / tau: per trailing column a dot of u2
    // with the column (partials per PE row, column-bus reduction). --------
    sim::TimedVal inv_tau = core.special(sim::SfuKind::Recip, step % nr, step,
                                         sim::at(tau, chi2_scaled_t.ready));
    for (int j = step + 1; j < nr; ++j) {
      sim::TimedVal dot = at2(step, j);
      for (int r = 0; r < nr; ++r) {
        sim::Pe& pe = core.pe(r, j);
        sim::TimedVal part = sim::at(0.0, 0.0);
        for (index_t i = step + 1; i < k; ++i) {
          if (static_cast<int>(i % nr) != r) continue;
          // u2 element arrives over the row bus from column `step`.
          sim::TimedVal u = core.broadcast_row(r, at2(i, step));
          part = pe.mac.fma(u, at2(i, j), part);
        }
        sim::TimedVal b = core.broadcast_col(j, part);
        dot = pe.mac.add(dot, b);
      }
      w[static_cast<std::size_t>(j)] = core.pe(step % nr, j).mac.mul(dot, inv_tau);
    }

    // ---- apply: a12 -= w; A22 -= u2 w^T. --------------------------------
    for (int j = step + 1; j < nr; ++j) {
      sim::TimedVal wj = core.broadcast_col(j, w[static_cast<std::size_t>(j)]);
      sim::Pe& top = core.pe(step % nr, j);
      sim::TimedVal neg1 = sim::at(-1.0, 0.0);
      at2(step, j) = top.mac.fma(neg1, wj, at2(step, j));
      for (index_t i = step + 1; i < k; ++i) {
        sim::Pe& pe = core.pe(static_cast<int>(i % nr), j);
        sim::TimedVal u = core.broadcast_row(static_cast<int>(i % nr), at2(i, step));
        u.v = -u.v;
        at2(i, j) = pe.mac.fma(u, wj, at2(i, j));
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
  const double useful = 2.0 * static_cast<double>(k) * nr * nr / 2.0;
  res.utilization = useful / (res.cycles.value() * nr * nr);
  return out;
}

}  // namespace lac::kernels
