#include "kernels/vnorm_kernel.hpp"

#include <cassert>
#include <cmath>

#include "sim/arena.hpp"

namespace lac::kernels {

// lint-allow: fma-dispatch (one MAC per element, off the hot path: on an
// AVX-512 Xeon an FMA clone of vnorm ran 5-8% slower per request)
VnormResult vnorm(const arch::CoreConfig& cfg, const std::vector<double>& x,
                  int owner_col) {
  const int nr = cfg.nr;
  const index_t k = static_cast<index_t>(x.size());
  assert(k % (2 * nr) == 0 && "vector length must split across two columns");
  assert(owner_col >= 0 && owner_col < nr);
  const int nbr_col = (owner_col + 1) % nr;
  const bool exp_ext = cfg.pe.extensions.extended_exponent;
  const bool cmp_ext = cfg.pe.extensions.comparator;

  sim::ArenaCore arena(cfg, 1e9, 1);
  sim::Core& core = arena.get();
  // Owner column PE r holds elements {i : i % nr == r}.
  // Stage into MEM-A fragments.
  for (int r = 0; r < nr; ++r) {
    double* frag = core.pe(r, owner_col).mem_a.fill(0, k / nr);
    for (index_t i = r; i < k; i += nr) *frag++ = x[static_cast<std::size_t>(i)];
  }
  core.dma(static_cast<double>(k), 0.0);

  // ---- optional guard pass: t = max |x_i|, then scale by 1/t. -----------
  sim::TimedVal scale = sim::at(1.0, 0.0);
  double t_host = 1.0;
  if (!exp_ext) {
    std::vector<sim::TimedVal> cand(static_cast<std::size_t>(nr));
    for (int r = 0; r < nr; ++r) {
      sim::Pe& pe = core.pe(r, owner_col);
      sim::TimedVal best = sim::at(0.0, 0.0);
      for (index_t i = r; i < k; i += nr) {
        sim::TimedVal v = pe.mem_a.read(i / nr, 0.0);
        best = pe.mac.compare_abs_max(v, best, cmp_ext);
      }
      cand[static_cast<std::size_t>(r)] = best;
    }
    sim::TimedVal maxv = sim::at(0.0, 0.0);
    for (int r = 0; r < nr; ++r) {
      sim::TimedVal b = core.broadcast_col(owner_col, cand[static_cast<std::size_t>(r)]);
      maxv = {std::max(std::abs(maxv.v), std::abs(b.v)), std::max(maxv.ready, b.ready)};
    }
    t_host = maxv.v == 0.0 ? 1.0 : std::abs(maxv.v);
    scale = core.special(sim::SfuKind::Recip, owner_col, owner_col,
                         sim::at(t_host, maxv.ready));
    scale = core.broadcast_col(owner_col, scale);
  }

  // ---- S1: share half the fragments with the neighbour column and form
  // partial inner products in both columns. ------------------------------
  const index_t half = k / 2;
  std::vector<sim::TimedVal> partial(static_cast<std::size_t>(2 * nr));
  // Owner column accumulates elements [0, half), neighbour [half, k).
  for (int r = 0; r < nr; ++r) {
    sim::Pe& own = core.pe(r, owner_col);
    sim::Pe& nbr = core.pe(r, nbr_col);
    sim::time_t_ own_last = 0.0;
    sim::time_t_ nbr_last = 0.0;
    for (index_t i = r; i < k; i += nr) {
      sim::TimedVal v = own.mem_a.read(i / nr, 0.0);
      if (!exp_ext) v = own.mac.mul(v, scale);
      if (i < half) {
        own.mac.mac_into_acc(0, v, v);
        own_last = std::max(own_last, v.ready);
      } else {
        // Row-bus transfer to the neighbour column, then accumulate there.
        sim::TimedVal shared = core.broadcast_row(r, v);
        nbr.mac.mac_into_acc(0, shared, shared);
        nbr_last = std::max(nbr_last, shared.ready);
      }
    }
    partial[static_cast<std::size_t>(r)] = own.mac.read_acc(0);
    partial[static_cast<std::size_t>(nr + r)] = nbr.mac.read_acc(0);
  }

  // ---- S2: neighbour partials return to the owner column (row buses). ---
  std::vector<sim::TimedVal> col_sum(static_cast<std::size_t>(nr));
  for (int r = 0; r < nr; ++r) {
    sim::TimedVal back = core.broadcast_row(r, partial[static_cast<std::size_t>(nr + r)]);
    col_sum[static_cast<std::size_t>(r)] =
        core.pe(r, owner_col).mac.add(partial[static_cast<std::size_t>(r)], back);
  }

  // ---- S3: reduce-all along the owner column bus. ------------------------
  sim::TimedVal total = sim::at(0.0, 0.0);
  for (int r = 0; r < nr; ++r) {
    sim::TimedVal b = core.broadcast_col(owner_col, col_sum[static_cast<std::size_t>(r)]);
    total = core.pe(owner_col, owner_col).mac.add(total, b);
  }

  // ---- final square root (and un-scale when the guard pass ran). --------
  sim::TimedVal root = core.special(sim::SfuKind::Sqrt, owner_col, owner_col, total);
  if (!exp_ext) root = core.pe(owner_col, owner_col).mac.mul(root, sim::at(t_host, root.ready));

  VnormResult res;
  res.norm = root.v;
  res.cycles = units::Cycles(std::max(root.ready, core.finish_time()));
  res.stats = core.stats();
  return res;
}

}  // namespace lac::kernels
