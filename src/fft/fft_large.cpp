#include "fft/fft_large.hpp"

#include <cassert>
#include <cmath>
#include <numbers>

#include "fft/reference_fft.hpp"
#include "sim/arena.hpp"

namespace lac::fft {
namespace {
constexpr double kTau = 2.0 * std::numbers::pi;

/// One 64-point transform over timed values on the shared core; returns
/// completion time. Declared in fft_kernel.cpp; re-derived here through the
/// public batched interface would lose the shared-core timing, so the
/// schedule is duplicated at the line level via fft64 batch calls.
}  // namespace

LAC_FMA_DISPATCH
FftResult fft4096_four_step(const arch::CoreConfig& cfg, double bw_words_per_cycle,
                            const std::vector<cplx>& x) {
  const index_t n1 = 64, n2 = 64;
  const index_t n = n1 * n2;
  assert(static_cast<index_t>(x.size()) == n);

  // View x as an n1 x n2 grid stored row-major: x[j1*n2 + j2].
  // Step 1: FFT each column (length 64) -- a 64-frame pipelined batch.
  std::vector<std::vector<cplx>> cols(static_cast<std::size_t>(n2),
                                      std::vector<cplx>(64));
  for (index_t j2 = 0; j2 < n2; ++j2)
    for (index_t j1 = 0; j1 < n1; ++j1)
      cols[static_cast<std::size_t>(j2)][static_cast<std::size_t>(j1)] =
          x[static_cast<std::size_t>(j1 * n2 + j2)];

  double total_cycles = 0.0;
  sim::Stats stats;
  std::vector<cplx> grid(static_cast<std::size_t>(n));
  {
    // Functional pass (per column) + timed pass (batched pipeline).
    for (index_t j2 = 0; j2 < n2; ++j2) {
      auto spec = fft_radix4(cols[static_cast<std::size_t>(j2)]);
      for (index_t k1 = 0; k1 < n1; ++k1)
        grid[static_cast<std::size_t>(k1 * n2 + j2)] = spec[static_cast<std::size_t>(k1)];
    }
    FftResult timed = fft64_batched(cfg, bw_words_per_cycle, cols);
    total_cycles += timed.cycles.value();
    stats += timed.stats;
  }

  // Step 2: twiddle scaling w^(k1*j2) -- one complex multiply per point on
  // the PEs (4 FMA slots each, 16 points/cycle across the core) with the
  // grid streamed in and out.
  {
    sim::ArenaCore arena(cfg, bw_words_per_cycle, 1);
    sim::Core& core = arena.get();
    sim::time_t_ in_done = core.dma(2.0 * static_cast<double>(n), 0.0);
    sim::time_t_ last = in_done;
    for (index_t k1 = 0; k1 < n1; ++k1)
      for (index_t j2 = 0; j2 < n2; ++j2) {
        const double ang = -kTau * static_cast<double>(k1) * j2 / n;
        const cplx w{std::cos(ang), std::sin(ang)};
        cplx& v = grid[static_cast<std::size_t>(k1 * n2 + j2)];
        sim::Pe& pe = core.pe(static_cast<int>(k1 % 4), static_cast<int>(j2 % 4));
        TimedCplx tv = timed(v, in_done);
        sim::TimedVal re_m = pe.mac.mul(tv.re, sim::at(w.real(), 0.0));
        sim::TimedVal im_m = pe.mac.mul(tv.im, sim::at(w.real(), 0.0));
        sim::TimedVal re = pe.mac.fma(sim::at(-w.imag(), 0.0), tv.im, re_m);
        sim::TimedVal im = pe.mac.fma(sim::at(w.imag(), 0.0), tv.re, im_m);
        v = {re.v, im.v};
        last = std::max(last, std::max(re.ready, im.ready));
      }
    total_cycles += core.dma(2.0 * static_cast<double>(n), last);
    stats += core.stats();
  }

  // Step 3: FFT each row (length 64).
  std::vector<std::vector<cplx>> rows(static_cast<std::size_t>(n1),
                                      std::vector<cplx>(64));
  for (index_t k1 = 0; k1 < n1; ++k1)
    for (index_t j2 = 0; j2 < n2; ++j2)
      rows[static_cast<std::size_t>(k1)][static_cast<std::size_t>(j2)] =
          grid[static_cast<std::size_t>(k1 * n2 + j2)];
  FftResult res;
  {
    for (index_t k1 = 0; k1 < n1; ++k1) {
      auto spec = fft_radix4(rows[static_cast<std::size_t>(k1)]);
      for (index_t k2 = 0; k2 < n2; ++k2)
        grid[static_cast<std::size_t>(k1 * n2 + k2)] = spec[static_cast<std::size_t>(k2)];
    }
    FftResult timed_run = fft64_batched(cfg, bw_words_per_cycle, rows);
    total_cycles += timed_run.cycles.value();
    stats += timed_run.stats;
  }

  // Step 4: transpose readout X[k2*n1 + k1].
  res.out.resize(static_cast<std::size_t>(n));
  for (index_t k1 = 0; k1 < n1; ++k1)
    for (index_t k2 = 0; k2 < n2; ++k2)
      res.out[static_cast<std::size_t>(k2 * n1 + k1)] =
          grid[static_cast<std::size_t>(k1 * n2 + k2)];
  res.cycles = units::Cycles(total_cycles);
  res.stats = stats;
  res.utilization = static_cast<double>(stats.mac_ops + stats.mul_ops) /
                    (total_cycles * 16.0);
  return res;
}

}  // namespace lac::fft
