// The unified fabric execution layer: backend parity (every kernel kind
// through the cycle-exact SimExecutor and the analytical ModelExecutor,
// numerics checked against the host reference and cycle counts
// cross-checked between the backends) plus pool-dispatch determinism and
// the zero accounting of a failed request.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>

#include "arch/presets.hpp"
#include "blas/lap_driver.hpp"
#include "blas/ref_blas.hpp"
#include "blas/ref_lapack.hpp"
#include "common/numeric.hpp"
#include "common/random.hpp"
#include "common/thread_pool.hpp"
#include "fabric/model_executor.hpp"
#include "fabric/sim_executor.hpp"
#include "fft/reference_fft.hpp"

namespace lac::fabric {
namespace {

const SimExecutor kSim;
const ModelExecutor kModel;

/// Relative sim-vs-model cycle tolerance per kernel kind. GEMM uses the
/// 10% of test_sim_vs_model.cpp (the §3.4 closed form is near-exact); the
/// composite kernels use the band the structural models were calibrated to.
double cycle_tolerance(KernelKind kind) {
  return kind == KernelKind::Gemm || kind == KernelKind::ChipGemm ? 0.10 : 0.35;
}

void expect_backend_parity(const KernelRequest& req, const MatrixD& reference,
                           double numeric_tol = 1e-9) {
  KernelResult sim = kSim.execute(req);
  KernelResult model = kModel.execute(req);
  ASSERT_TRUE(sim.ok) << to_string(req.kind) << ": " << sim.error;
  ASSERT_TRUE(model.ok) << to_string(req.kind) << ": " << model.error;
  EXPECT_EQ(sim.backend, "sim");
  EXPECT_EQ(model.backend, "model");
  // Numerics: both backends must reproduce the host reference.
  EXPECT_LT(rel_error(sim.out.view(), reference.view()), numeric_tol)
      << to_string(req.kind) << " sim numerics";
  EXPECT_LT(rel_error(model.out.view(), reference.view()), numeric_tol)
      << to_string(req.kind) << " model numerics";
  // Cycles: the analytical backend must track the cycle-exact one.
  const double tol = cycle_tolerance(req.kind);
  EXPECT_NEAR(sim.cycles.value(), model.cycles.value(), tol * model.cycles.value() + 50.0)
      << to_string(req.kind) << " cycles: sim=" << sim.cycles.value()
      << " model=" << model.cycles.value();
  EXPECT_GT(sim.cycles.value(), 0.0);
  EXPECT_GT(model.cycles.value(), 0.0);
  // Utilization: both backends define it as useful_macs over MAC slots, so
  // the figures must agree within the cycle band (plus a little absolute
  // slack for the short-kernel constant terms).
  EXPECT_GT(sim.utilization, 0.0) << to_string(req.kind);
  EXPECT_GT(model.utilization, 0.0) << to_string(req.kind);
  EXPECT_NEAR(sim.utilization, model.utilization,
              tol * model.utilization + 0.02)
      << to_string(req.kind) << " utilization: sim=" << sim.utilization
      << " model=" << model.utilization;
}

TEST(FabricParity, Gemm) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD a = random_matrix(32, 32, 1);
  MatrixD b = random_matrix(32, 64, 2);
  MatrixD c = random_matrix(32, 64, 3);
  MatrixD ref = c;
  blas::gemm(blas::Trans::No, blas::Trans::No, 1.0, a.view(), b.view(), 1.0,
             ref.view());
  for (double bw : {0.5, 2.0, 8.0})
    expect_backend_parity(make_gemm(cfg, bw, a.view(), b.view(), c.view()), ref);
}

TEST(FabricParity, Syrk) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD a = random_matrix(32, 32, 4);
  MatrixD c = random_matrix(32, 32, 5);
  MatrixD ref = c;
  blas::syrk(blas::Uplo::Lower, 1.0, a.view(), 1.0, ref.view());
  for (double bw : {0.5, 2.0, 8.0})
    expect_backend_parity(make_syrk(cfg, bw, a.view(), c.view()), ref);
}

TEST(FabricParity, Syr2k) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD a = random_matrix(32, 32, 6);
  MatrixD b = random_matrix(32, 32, 7);
  MatrixD c = random_matrix(32, 32, 8);
  MatrixD ref = c;
  blas::syr2k(blas::Uplo::Lower, 1.0, a.view(), b.view(), 1.0, ref.view());
  for (double bw : {0.5, 2.0, 8.0})
    expect_backend_parity(make_syr2k(cfg, bw, a.view(), b.view(), c.view()), ref);
}

TEST(FabricParity, Trsm) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD l = random_lower_triangular(32, 9);
  MatrixD b = random_matrix(32, 32, 10);
  MatrixD ref = b;
  blas::trsm(blas::Side::Left, blas::Uplo::Lower, blas::Trans::No,
             blas::Diag::NonUnit, 1.0, l.view(), ref.view());
  for (double bw : {0.5, 2.0, 8.0})
    expect_backend_parity(make_trsm(cfg, bw, l.view(), b.view()), ref, 1e-8);
}

TEST(FabricParity, Cholesky) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD a = random_spd(32, 11);
  MatrixD ref = a;
  ASSERT_TRUE(blas::cholesky(ref.view()));
  for (index_t j = 1; j < ref.cols(); ++j)
    for (index_t i = 0; i < j; ++i) ref(i, j) = 0.0;
  for (double bw : {0.5, 2.0, 8.0})
    expect_backend_parity(make_cholesky(cfg, bw, a.view()), ref, 1e-8);
}

TEST(FabricParity, LuPanel) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD panel = random_matrix(32, 4, 12);
  MatrixD ref = panel;
  std::vector<index_t> ref_piv;
  ASSERT_TRUE(blas::lu_partial_pivot(ref.view(), ref_piv));
  KernelRequest req = make_lu(cfg, panel.view());
  expect_backend_parity(req, ref, 1e-10);
  // Pivot sequences must agree too (deterministic max-magnitude search).
  KernelResult sim = kSim.execute(req);
  KernelResult model = kModel.execute(req);
  EXPECT_EQ(sim.pivots, ref_piv);
  EXPECT_EQ(model.pivots, ref_piv);
}

TEST(FabricParity, QrPanel) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD panel = random_matrix(32, 4, 13);
  MatrixD ref = panel;
  std::vector<double> ref_taus = blas::qr_householder(ref.view());
  KernelRequest req = make_qr(cfg, panel.view());
  expect_backend_parity(req, ref, 1e-9);
  KernelResult sim = kSim.execute(req);
  ASSERT_EQ(sim.taus.size(), ref_taus.size());
  for (std::size_t i = 0; i < ref_taus.size(); ++i)
    EXPECT_NEAR(sim.taus[i], ref_taus[i], 1e-9 * std::abs(ref_taus[i]) + 1e-12);
}

TEST(FabricParity, Vnorm) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  std::vector<double> x(256);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::sin(0.37 * static_cast<double>(i + 1));
  const double ref = blas::nrm2(static_cast<index_t>(x.size()), x.data());
  KernelRequest req = make_vnorm(cfg, x);
  KernelResult sim = kSim.execute(req);
  KernelResult model = kModel.execute(req);
  ASSERT_TRUE(sim.ok && model.ok);
  EXPECT_NEAR(sim.scalar, ref, 1e-9 * ref);
  EXPECT_NEAR(model.scalar, ref, 1e-12 * ref);
  EXPECT_NEAR(sim.cycles.value(), model.cycles.value(), 0.35 * model.cycles.value() + 50.0);
  // Both backends count one useful MAC per element (guard-pass and
  // reduction slots are overhead), so utilization tracks the cycle band.
  EXPECT_GT(sim.utilization, 0.0);
  EXPECT_GT(model.utilization, 0.0);
  EXPECT_NEAR(sim.utilization, model.utilization,
              0.35 * model.utilization + 0.02);
}

TEST(FabricParity, Fft) {
  // The tenth fabric kernel: pipelined 64-point radix-4 frames on the
  // hybrid core. Both backends must reproduce the radix-4 reference and
  // the analytical cycle/utilization estimates must track the simulated
  // schedule inside the composite-kernel band (<= 35%), like the others.
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  for (std::size_t frames : {1u, 4u, 8u}) {
    const std::vector<std::complex<double>> x =
        random_cplx_vector(64 * frames, 40 + frames);
    for (double bw : {0.5, 2.0, 8.0}) {
      KernelRequest req = make_fft(cfg, bw, x);
      KernelResult sim = kSim.execute(req);
      KernelResult model = kModel.execute(req);
      ASSERT_TRUE(sim.ok) << sim.error;
      ASSERT_TRUE(model.ok) << model.error;
      // Frame-by-frame numerics against the host radix-4 reference.
      ASSERT_EQ(sim.spectrum.size(), x.size());
      ASSERT_EQ(model.spectrum.size(), x.size());
      for (std::size_t f = 0; f < frames; ++f) {
        std::vector<fft::cplx> frame(x.begin() + static_cast<std::ptrdiff_t>(64 * f),
                                     x.begin() + static_cast<std::ptrdiff_t>(64 * (f + 1)));
        const std::vector<fft::cplx> ref = fft::fft_radix4(frame);
        for (std::size_t i = 0; i < 64; ++i) {
          EXPECT_LT(std::abs(sim.spectrum[64 * f + i] - ref[i]), 1e-9) << f << "," << i;
          EXPECT_LT(std::abs(model.spectrum[64 * f + i] - ref[i]), 1e-9) << f << "," << i;
        }
      }
      EXPECT_GT(sim.cycles.value(), 0.0);
      EXPECT_NEAR(sim.cycles.value(), model.cycles.value(), 0.35 * model.cycles.value() + 50.0)
          << "bw=" << bw << " frames=" << frames;
      EXPECT_GT(sim.utilization, 0.0);
      EXPECT_GT(model.utilization, 0.0);
      EXPECT_NEAR(sim.utilization, model.utilization,
                  0.35 * model.utilization + 0.02);
    }
  }
}

TEST(FabricParity, FftFourStep) {
  // 4096-point four-step variant: 64x64 grid of core transforms plus the
  // twiddle pass, validated against the flat radix-4 reference.
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  const std::vector<std::complex<double>> x = random_cplx_vector(4096, 77);
  const std::vector<fft::cplx> ref = fft::fft_radix4(x);
  KernelRequest req = make_fft(cfg, 4.0, x, FftVariant::FourStep);
  KernelResult sim = kSim.execute(req);
  KernelResult model = kModel.execute(req);
  ASSERT_TRUE(sim.ok) << sim.error;
  ASSERT_TRUE(model.ok) << model.error;
  double err = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i)
    err = std::max(err, std::abs(sim.spectrum[i] - ref[i]));
  EXPECT_LT(err, 1e-8);
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_LT(std::abs(model.spectrum[i] - ref[i]), 1e-12) << i;
  EXPECT_NEAR(sim.cycles.value(), model.cycles.value(), 0.35 * model.cycles.value() + 50.0);
}

TEST(FabricExecutor, FftRejectsInvalidShapesInBand) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  std::vector<KernelRequest> bad;
  bad.push_back(make_fft(cfg, 2.0, random_cplx_vector(63, 1)));   // not 64-mult
  bad.push_back(make_fft(cfg, 2.0, std::vector<std::complex<double>>{}));
  bad.push_back(make_fft(cfg, 2.0, random_cplx_vector(128, 1),
                         FftVariant::FourStep));                  // != 4096
  bad.push_back(make_fft(arch::lac_8x8_dp(), 2.0, random_cplx_vector(64, 1)));
  for (const KernelRequest& req : bad) {
    for (const Executor* ex : {static_cast<const Executor*>(&kSim),
                               static_cast<const Executor*>(&kModel)}) {
      KernelResult res = ex->execute(req);
      EXPECT_FALSE(res.ok) << res.backend;
      EXPECT_FALSE(res.error.empty()) << res.backend;
      EXPECT_EQ(res.cycles.value(), 0.0) << res.backend;
    }
  }
}

TEST(FabricParity, ChipGemm) {
  arch::ChipConfig chip = arch::lap_s8();
  chip.cores = 2;
  const index_t m = 32, n = 32, k = 32;
  MatrixD a = random_matrix(m, k, 14);
  MatrixD b = random_matrix(k, n, 15);
  MatrixD c = random_matrix(m, n, 16);
  MatrixD ref = c;
  blas::gemm(blas::Trans::No, blas::Trans::No, 1.0, a.view(), b.view(), 1.0,
             ref.view());
  expect_backend_parity(
      make_chip_gemm(chip, 16, 16, a.view(), b.view(), c.view()), ref);
}

TEST(FabricExecutor, NonSpdCholeskyFailsInBandOnBothBackends) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD a = random_matrix(16, 16, 40);  // not symmetric positive definite
  for (index_t i = 0; i < 16; ++i) a(i, i) = -1.0;
  KernelRequest req = make_cholesky(cfg, 2.0, a.view());
  for (const Executor* ex : {static_cast<const Executor*>(&kSim),
                             static_cast<const Executor*>(&kModel)}) {
    KernelResult res = ex->execute(req);
    EXPECT_FALSE(res.ok) << res.backend;
    EXPECT_FALSE(res.error.empty()) << res.backend;
  }
}

TEST(FabricExecutor, InvalidRequestReportsInBand) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  KernelRequest req = make_gemm(cfg, 1.0, random_matrix(30, 32, 17).view(),
                                random_matrix(32, 32, 18).view(),
                                MatrixD(30, 32, 0.0).view());  // 30 % 4 != 0
  for (const Executor* ex : {static_cast<const Executor*>(&kSim),
                             static_cast<const Executor*>(&kModel)}) {
    KernelResult res = ex->execute(req);
    EXPECT_FALSE(res.ok);
    EXPECT_FALSE(res.error.empty());
  }
}

std::vector<KernelRequest> sweep_requests() {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  std::vector<KernelRequest> reqs;
  int seed = 100;
  for (index_t sz : {16, 24, 32}) {
    for (double bw : {0.5, 1.0, 4.0}) {
      MatrixD a = random_matrix(sz, sz, seed++);
      MatrixD b = random_matrix(sz, sz, seed++);
      MatrixD c = random_matrix(sz, sz, seed++);
      KernelRequest g = make_gemm(cfg, bw, a.view(), b.view(), c.view());
      g.tag = "gemm";
      reqs.push_back(std::move(g));
      KernelRequest s = make_syrk(cfg, bw, a.view(), c.view());
      s.tag = "syrk";
      reqs.push_back(std::move(s));
    }
  }
  return reqs;
}

TEST(ParallelDispatch, DeterministicAcrossWorkerCounts) {
  // Result i is written by index, so the batch is the same for any worker
  // cap of the shared pool.
  auto run = [](const Executor& ex, const std::vector<KernelRequest>& reqs,
                unsigned max_workers) {
    std::vector<KernelResult> out(reqs.size());
    ThreadPool::shared().parallel_for(
        reqs.size(), [&](std::size_t i) { out[i] = ex.execute(reqs[i]); },
        max_workers);
    return out;
  };
  for (const Executor* ex : {static_cast<const Executor*>(&kSim),
                             static_cast<const Executor*>(&kModel)}) {
    std::vector<KernelRequest> reqs = sweep_requests();
    std::vector<KernelResult> base = run(*ex, reqs, 1);
    for (unsigned workers : {2u, 4u}) {
      std::vector<KernelResult> got = run(*ex, reqs, workers);
      ASSERT_EQ(got.size(), base.size());
      for (std::size_t i = 0; i < base.size(); ++i) {
        EXPECT_TRUE(got[i].ok);
        EXPECT_EQ(got[i].tag, base[i].tag);
        EXPECT_EQ(got[i].cycles.value(), base[i].cycles.value()) << "request " << i;
        EXPECT_EQ(got[i].stats.mac_ops, base[i].stats.mac_ops);
        EXPECT_TRUE(got[i].out == base[i].out) << "request " << i;
      }
    }
  }
}

TEST(FailedRequest, ChargesNothingOnEitherBackend) {
  // A failed request carries the canonical make_failed accounting: every
  // cost field at zero on both backends (the simulator's partially
  // absorbed activity is voided), and its neighbours are unaffected.
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD bad = random_matrix(16, 16, 50);  // not positive definite
  for (index_t i = 0; i < 16; ++i) bad(i, i) = -1.0;
  MatrixD a = random_matrix(16, 16, 51);
  MatrixD b = random_matrix(16, 16, 52);
  MatrixD c = random_matrix(16, 16, 53);
  for (const Executor* ex : {static_cast<const Executor*>(&kSim),
                             static_cast<const Executor*>(&kModel)}) {
    KernelRequest failing = make_cholesky(cfg, 2.0, bad.view());
    failing.tag = "chol/bad";
    const KernelResult r = ex->execute(failing);
    EXPECT_FALSE(r.ok) << ex->name();
    EXPECT_FALSE(r.error.empty()) << ex->name();
    EXPECT_EQ(r.backend, ex->name());
    EXPECT_EQ(r.tag, "chol/bad");
    EXPECT_EQ(r.cycles.value(), 0.0) << ex->name();
    EXPECT_EQ(r.utilization, 0.0) << ex->name();
    EXPECT_EQ(r.energy_nj.value(), 0.0) << ex->name();
    EXPECT_EQ(r.avg_power_w.value(), 0.0) << ex->name();
    EXPECT_EQ(r.area_mm2.value(), 0.0) << ex->name();
    EXPECT_EQ(r.metrics.flops_per_s.value(), 0.0) << ex->name();
    EXPECT_EQ(r.metrics.watts.value(), 0.0) << ex->name();
    for (std::int64_t sim::Stats::*field :
         {&sim::Stats::mac_ops, &sim::Stats::mul_ops, &sim::Stats::cmp_ops,
          &sim::Stats::mem_a_reads, &sim::Stats::mem_a_writes,
          &sim::Stats::mem_b_reads, &sim::Stats::mem_b_writes,
          &sim::Stats::rf_reads, &sim::Stats::rf_writes,
          &sim::Stats::row_bus_xfers, &sim::Stats::col_bus_xfers,
          &sim::Stats::sfu_ops, &sim::Stats::dma_words})
      EXPECT_EQ(r.stats.*field, 0) << ex->name();

    const KernelResult gemm = ex->execute(make_gemm(cfg, 2.0, a.view(), b.view(), c.view()));
    const KernelResult syrk = ex->execute(make_syrk(cfg, 2.0, a.view(), c.view()));
    for (const KernelResult* ok : {&gemm, &syrk}) {
      EXPECT_TRUE(ok->ok) << ex->name();
      EXPECT_GT(ok->cycles.value(), 0.0) << ex->name();
      EXPECT_GT(ok->energy_nj.value(), 0.0) << ex->name();
    }
  }
}

TEST(LapDriverOnFabric, GemmFirstPanelOverlapAccounting) {
  // m=32, mc=8 gives four row tiles inside the single k-panel: only the
  // very first tile has no prior compute to hide its A load behind, so the
  // driver must charge Partial once and Full for the remaining three. At
  // bw=8 the tiles are compute-bound, where the two regimes differ (a
  // stream-bound shape would hide the A load either way).
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  const index_t m = 32, n = 24, k = 16;
  const index_t mc = 8, kc = 16;
  const double bw = 8.0;
  MatrixD a = random_matrix(m, k, 60);
  MatrixD b = random_matrix(k, n, 61);
  MatrixD c0 = random_matrix(m, n, 62);

  MatrixD c_model = c0;
  blas::DriverReport rm =
      blas::lap_gemm(kModel, cfg, bw, mc, kc, a.view(), b.view(), c_model.view());

  double expected = 0.0, all_partial = 0.0;
  for (index_t ii = 0; ii < m; ii += mc) {
    KernelRequest tile =
        make_gemm(cfg, bw, a.block(ii, 0, mc, k), b.view(), c0.block(ii, 0, mc, n),
                  ii == 0 ? model::Overlap::Partial : model::Overlap::Full);
    expected += model_cycles(tile).value();
    tile.overlap = model::Overlap::Partial;
    all_partial += model_cycles(tile).value();
  }
  EXPECT_DOUBLE_EQ(rm.total_cycles.value(), expected);
  // At this shape the regime choice changes the total, so the old
  // every-tile-Partial accounting is distinguishable.
  EXPECT_LT(rm.total_cycles.value(), all_partial);

  // And the fixed accounting still tracks the cycle-exact backend.
  MatrixD c_sim = c0;
  blas::DriverReport rs =
      blas::lap_gemm(kSim, cfg, bw, mc, kc, a.view(), b.view(), c_sim.view());
  EXPECT_NEAR(rs.total_cycles.value(), rm.total_cycles.value(), 0.10 * rm.total_cycles.value() + 100.0);
  MatrixD expect = c0;
  blas::gemm(blas::Trans::No, blas::Trans::No, 1.0, a.view(), b.view(), 1.0,
             expect.view());
  EXPECT_LT(rel_error(c_sim.view(), expect.view()), 1e-12);
  EXPECT_LT(rel_error(c_model.view(), expect.view()), 1e-12);
}

TEST(LapDriverOnFabric, QrTrailingUpdateChargedOnFabric) {
  // Every reflector application is two fabric GEMMs (w^T = u^T A2 / tau and
  // the rank-1 update), so for a 16x8 factorization with nr=4 the driver
  // makes 2 panel-QR calls plus 2*nr trailing-update calls; the w
  // matrix-vector products contribute fabric cycles like everything else.
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD a = random_matrix(16, 8, 63);
  std::vector<double> taus;
  blas::DriverReport rep = blas::lap_qr(kModel, cfg, 2.0, a.view(), taus);
  EXPECT_EQ(rep.kernel_calls, 2 + 2 * cfg.nr);
  EXPECT_GT(rep.total_cycles.value(), 0.0);
  MatrixD q = blas::qr_form_q(a.view(), taus);
  MatrixD qtq(8, 8, 0.0);
  blas::gemm(blas::Trans::Yes, blas::Trans::No, 1.0, q.view(), q.view(), 0.0,
             qtq.view());
  EXPECT_LT(rel_error(qtq.view(), identity(8).view()), 1e-9);
}

TEST(LapDriverOnFabric, GemmSameNumericsOnBothBackends) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  const index_t m = 24, n = 24, k = 24;
  MatrixD a = random_matrix(m, k, 30);
  MatrixD b = random_matrix(k, n, 31);
  MatrixD c0 = random_matrix(m, n, 32);
  MatrixD expect = c0;
  blas::gemm(blas::Trans::No, blas::Trans::No, 1.0, a.view(), b.view(), 1.0,
             expect.view());

  MatrixD c_sim = c0;
  blas::DriverReport rs =
      blas::lap_gemm(kSim, cfg, 2.0, 8, 8, a.view(), b.view(), c_sim.view());
  MatrixD c_model = c0;
  blas::DriverReport rm =
      blas::lap_gemm(kModel, cfg, 2.0, 8, 8, a.view(), b.view(), c_model.view());

  EXPECT_LT(rel_error(c_sim.view(), expect.view()), 1e-12);
  EXPECT_LT(rel_error(c_model.view(), expect.view()), 1e-12);
  EXPECT_EQ(rs.kernel_calls, rm.kernel_calls);
  // The analytical driver must track the simulated one's total cycles.
  EXPECT_NEAR(rs.total_cycles.value(), rm.total_cycles.value(), 0.15 * rm.total_cycles.value() + 100.0);
  // The model backend reports no simulator activity counters.
  EXPECT_EQ(rm.stats.mac_ops, 0);
  EXPECT_GT(rs.stats.mac_ops, 0);
}

TEST(LapDriverOnFabric, CholeskyFactorsOnModelBackend) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  const index_t n = 24;
  MatrixD a = random_spd(n, 33);
  MatrixD expect = a;
  ASSERT_TRUE(blas::cholesky(expect.view()));
  blas::DriverReport rep = blas::lap_cholesky(kModel, cfg, 2.0, 8, a.view());
  EXPECT_LT(rel_error(a.view(), expect.view()), 1e-9);
  EXPECT_GT(rep.total_cycles.value(), 0.0);
  EXPECT_GT(rep.kernel_calls, 3);
}

TEST(LapDriverOnFabric, LuAndQrRunOnModelBackend) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD a = random_matrix(16, 8, 34);
  MatrixD a_lu = a;
  std::vector<index_t> piv;
  blas::DriverReport rl = blas::lap_lu(kModel, cfg, 2.0, a_lu.view(), piv);
  MatrixD expect = a;
  std::vector<index_t> ref_piv;
  ASSERT_TRUE(blas::lu_partial_pivot(expect.view(), ref_piv));
  EXPECT_LT(rel_error(a_lu.view(), expect.view()), 1e-9);
  EXPECT_EQ(piv, ref_piv);
  EXPECT_GT(rl.total_cycles.value(), 0.0);

  MatrixD a_qr = a;
  std::vector<double> taus;
  blas::DriverReport rq = blas::lap_qr(kModel, cfg, 2.0, a_qr.view(), taus);
  MatrixD q = blas::qr_form_q(a_qr.view(), taus);
  // Q^T Q = I.
  MatrixD qtq(a.cols(), a.cols(), 0.0);
  blas::gemm(blas::Trans::Yes, blas::Trans::No, 1.0, q.view(), q.view(), 0.0,
             qtq.view());
  EXPECT_LT(rel_error(qtq.view(), identity(a.cols()).view()), 1e-9);
  EXPECT_GT(rq.total_cycles.value(), 0.0);
}

}  // namespace
}  // namespace lac::fabric
