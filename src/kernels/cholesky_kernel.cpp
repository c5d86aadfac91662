#include "kernels/cholesky_kernel.hpp"

#include <cassert>
#include <vector>

#include "sim/arena.hpp"

namespace lac::kernels {
namespace {

/// Run the nr x nr Cholesky recurrence on timed values held per-PE.
/// `av(r,c)` holds A(r,c) mirrored to both triangles. Returns the lower
/// factor values in place.
LAC_FMA_DISPATCH
void chol_recurrence(sim::Core& core, std::vector<sim::TimedVal>& av) {
  const int nr = core.nr();
  auto at2 = [&](int r, int c) -> sim::TimedVal& {
    return av[static_cast<std::size_t>(r * nr + c)];
  };
  // Broadcast buffers hoisted out of the recurrence: entries i+1..nr-1 are
  // fully rewritten before every read, so one checkout serves all steps.
  sim::Scratch<sim::TimedVal> lcol(static_cast<std::size_t>(nr));
  sim::Scratch<sim::TimedVal> lrow(static_cast<std::size_t>(nr));
  for (int i = 0; i < nr; ++i) {
    // S1/S2: t = 1/sqrt(alpha_ii); l_ii = alpha_ii * t.
    sim::TimedVal alpha = at2(i, i);
    sim::TimedVal t = core.special(sim::SfuKind::Rsqrt, i, i, alpha);
    sim::TimedVal lii = core.pe(i, i).mac.mul(alpha, t);
    at2(i, i) = lii;
    // Broadcast t along row i and column i; scale the column below and the
    // mirrored row to the right of the diagonal.
    sim::TimedVal t_row = core.broadcast_row(i, t);
    sim::TimedVal t_col = core.broadcast_col(i, t);
    for (int k = i + 1; k < nr; ++k) {
      at2(k, i) = core.pe(k, i).mac.mul(at2(k, i), t_col);
      at2(i, k) = core.pe(i, k).mac.mul(at2(i, k), t_row);
    }
    // S3: rank-1 update of the trailing submatrix: the column factors are
    // broadcast along the rows (from PE(k,i)) and the mirrored row factors
    // down the columns (from PE(i,j)).
    for (int k = i + 1; k < nr; ++k) lcol[static_cast<std::size_t>(k)] = core.broadcast_row(k, at2(k, i));
    for (int j = i + 1; j < nr; ++j) lrow[static_cast<std::size_t>(j)] = core.broadcast_col(j, at2(i, j));
    for (int k = i + 1; k < nr; ++k)
      for (int j = i + 1; j < nr; ++j) {
        sim::TimedVal neg = lcol[static_cast<std::size_t>(k)];
        neg.v = -neg.v;
        at2(k, j) = core.pe(k, j).mac.fma(neg, lrow[static_cast<std::size_t>(j)], at2(k, j));
      }
  }
}

}  // namespace

KernelResult cholesky_inner(const arch::CoreConfig& cfg, ConstViewD a) {
  const int nr = cfg.nr;
  assert(a.rows() == nr && a.cols() == nr);
  sim::ArenaCore arena(cfg, 1e9, 1);
  sim::Core& core = arena.get();
  std::vector<sim::TimedVal> av(static_cast<std::size_t>(nr * nr));
  for (int r = 0; r < nr; ++r)
    for (int c = 0; c < nr; ++c)
      // Mirror: use the lower-triangle value for both (the mapping keeps an
      // upper copy to simplify the rank-1 broadcasts, §6.1.1).
      av[static_cast<std::size_t>(r * nr + c)] = sim::at(r >= c ? a(r, c) : a(c, r), 0.0);

  chol_recurrence(core, av);

  KernelResult res;
  res.out = MatrixD(nr, nr, 0.0);
  double finish = 0.0;
  for (int r = 0; r < nr; ++r)
    for (int c = 0; c <= r; ++c) {
      const sim::TimedVal& v = av[static_cast<std::size_t>(r * nr + c)];
      res.out(r, c) = v.v;
      finish = std::max(finish, v.ready);
    }
  res.cycles = units::Cycles(std::max(finish, core.finish_time()));
  res.stats = core.stats();
  const double useful = nr * nr * nr / 3.0;
  res.utilization = useful / (res.cycles.value() * nr * nr);
  return res;
}

LAC_FMA_DISPATCH
KernelResult cholesky_core(const arch::CoreConfig& cfg, double bw_words_per_cycle,
                           ConstViewD a) {
  // Blocked right-looking Cholesky with all data on-core. Diagonal blocks
  // use the inner kernel; the panel solve and trailing update re-run the
  // same timed recurrences per block (TRSM w/ L11^T, then SYRK).
  const int nr = cfg.nr;
  const index_t n = a.rows();
  assert(n % nr == 0 && a.cols() == n);
  const index_t kb = n / nr;

  sim::ArenaCore arena(cfg, bw_words_per_cycle, 2);
  sim::Core& core = arena.get();
  MatrixD work = to_matrix<double>(a);
  const sim::time_t_ load_done =
      core.dma(static_cast<double>(n) * (n + 1) / 2, 0.0);

  // Timed value lattice for the whole matrix (kb*kb blocks of nr x nr).
  sim::Scratch<sim::TimedVal> tv(static_cast<std::size_t>(n * n));
  auto at2 = [&](index_t r, index_t c) -> sim::TimedVal& {
    return tv[static_cast<std::size_t>(r * n + c)];
  };
  for (index_t r = 0; r < n; ++r)
    for (index_t c = 0; c < n; ++c)
      at2(r, c) = sim::at(r >= c ? work(r, c) : work(c, r), load_done);

  // Per-block buffers hoisted out of the factorization loops: every entry
  // is rewritten before it is read in each use.
  sim::Scratch<sim::TimedVal> diag(static_cast<std::size_t>(nr * nr));
  sim::Scratch<sim::TimedVal> lrow(static_cast<std::size_t>(nr));
  sim::Scratch<sim::TimedVal> lcol(static_cast<std::size_t>(nr));
  for (index_t d = 0; d < kb; ++d) {
    // Diagonal block factorization (values already timed in the lattice).
    for (int r = 0; r < nr; ++r)
      for (int c = 0; c < nr; ++c)
        diag[static_cast<std::size_t>(r * nr + c)] = at2(d * nr + r, d * nr + c);
    chol_recurrence(core, diag.vec());
    for (int r = 0; r < nr; ++r)
      for (int c = 0; c < nr; ++c) at2(d * nr + r, d * nr + c) = diag[static_cast<std::size_t>(r * nr + c)];

    // Panel solve: L21 = A21 * L11^{-T} via column-wise substitution.
    for (index_t bi = d + 1; bi < kb; ++bi) {
      for (int j = 0; j < nr; ++j) {
        sim::TimedVal ljj = at2(d * nr + j, d * nr + j);
        sim::TimedVal inv = core.special(sim::SfuKind::Recip, j, j, ljj);
        sim::TimedVal inv_b = core.broadcast_col(j, inv);
        for (int r = 0; r < nr; ++r) {
          sim::TimedVal cur = at2(bi * nr + r, d * nr + j);
          at2(bi * nr + r, d * nr + j) = core.pe(r, j).mac.mul(cur, inv_b);
        }
        for (int j2 = j + 1; j2 < nr; ++j2) {
          sim::TimedVal ljk = core.broadcast_col(j2, at2(d * nr + j2, d * nr + j));
          for (int r = 0; r < nr; ++r) {
            sim::TimedVal neg = at2(bi * nr + r, d * nr + j);
            sim::TimedVal prod = core.pe(r, j2).mac.mul(neg, ljk);
            prod.v = -prod.v;
            at2(bi * nr + r, d * nr + j2) =
                core.pe(r, j2).mac.add(at2(bi * nr + r, d * nr + j2), prod);
          }
        }
      }
    }

    // Trailing SYRK update: A22 -= L21 * L21^T (block rank-nr updates).
    for (index_t bi = d + 1; bi < kb; ++bi)
      for (index_t bj = d + 1; bj <= bi; ++bj)
        for (int p = 0; p < nr; ++p) {
          for (int r = 0; r < nr; ++r)
            lrow[static_cast<std::size_t>(r)] = core.broadcast_row(r, at2(bi * nr + r, d * nr + p));
          for (int c = 0; c < nr; ++c)
            lcol[static_cast<std::size_t>(c)] = core.broadcast_col(c, at2(bj * nr + c, d * nr + p));
          for (int r = 0; r < nr; ++r)
            for (int c = 0; c < nr; ++c) {
              sim::TimedVal neg = lrow[static_cast<std::size_t>(r)];
              neg.v = -neg.v;
              at2(bi * nr + r, bj * nr + c) = core.pe(r, c).mac.fma(
                  neg, lcol[static_cast<std::size_t>(c)], at2(bi * nr + r, bj * nr + c));
            }
        }
    // Keep the mirrored upper copy consistent for the next iterations.
    for (index_t r = 0; r < n; ++r)
      for (index_t c = r + 1; c < n; ++c) at2(r, c) = at2(c, r);
  }

  KernelResult res;
  res.out = MatrixD(n, n, 0.0);
  double finish = load_done;
  for (index_t r = 0; r < n; ++r)
    for (index_t c = 0; c <= r; ++c) {
      res.out(r, c) = at2(r, c).v;
      finish = std::max(finish, at2(r, c).ready);
    }
  const sim::time_t_ store_done = core.dma(static_cast<double>(n) * (n + 1) / 2, finish);
  res.cycles = units::Cycles(std::max(store_done, core.finish_time()));
  res.stats = core.stats();
  const double useful = static_cast<double>(n) * n * n / 3.0 / 2.0;  // MACs
  res.utilization = useful / (res.cycles.value() * nr * nr);
  return res;
}

}  // namespace lac::kernels
