#include "blas/lap_driver.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "arch/presets.hpp"
#include "blas/ref_blas.hpp"
#include "blas/ref_lapack.hpp"
#include "common/numeric.hpp"
#include "common/random.hpp"
#include "fabric/model_executor.hpp"
#include "fabric/sim_executor.hpp"

namespace lac::blas {
namespace {

const fabric::SimExecutor kSim;

TEST(LapDriver, GemmMatchesReferenceAcrossTiles) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  const index_t m = 32, n = 24, k = 32;
  MatrixD a = random_matrix(m, k, 1);
  MatrixD b = random_matrix(k, n, 2);
  MatrixD c = random_matrix(m, n, 3);
  MatrixD expect = to_matrix<double>(ConstViewD(c.view()));
  gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 1.0, expect.view());

  DriverReport rep = lap_gemm(kSim, cfg, 2.0, 16, 16, a.view(), b.view(), c.view());
  EXPECT_LT(rel_error(c.view(), expect.view()), 1e-12);
  EXPECT_EQ(rep.kernel_calls, 4);  // 2 k-panels x 2 row-tiles
  EXPECT_GT(rep.total_cycles.value(), 0.0);
  EXPECT_EQ(rep.stats.mac_ops, m * n * k);
}

TEST(LapDriver, GemmUtilizationReasonable) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  const index_t m = 32, n = 64, k = 32;
  MatrixD a = random_matrix(m, k, 4);
  MatrixD b = random_matrix(k, n, 5);
  MatrixD c(m, n, 0.0);
  DriverReport rep = lap_gemm(kSim, cfg, 2.0, 32, 32, a.view(), b.view(), c.view());
  EXPECT_GT(rep.utilization, 0.5);
  EXPECT_LE(rep.utilization, 1.0);
}

TEST(LapDriver, CholeskyByBlocksMatchesReference) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  const index_t n = 24;
  MatrixD a = random_spd(n, 6);
  MatrixD expect = to_matrix<double>(ConstViewD(a.view()));
  ASSERT_TRUE(cholesky(expect.view()));
  DriverReport rep = lap_cholesky(kSim, cfg, 2.0, 8, a.view());
  EXPECT_LT(rel_error(a.view(), expect.view()), 1e-9);
  EXPECT_GT(rep.kernel_calls, 3);
}

TEST(LapDriver, CholeskyGraphMatchesSerialDriverWithinTolerance) {
  // The graph route runs the same blocked factorization as tile-level
  // kernels (per-tile TRSM/SYRK/GEMM instead of whole-panel calls), so its
  // accumulated cycles and energy must track the serial driver path -- the
  // regression guard for re-expressing composites as kernel graphs.
  const fabric::SimExecutor sim;
  const fabric::ModelExecutor model;
  struct Case {
    const fabric::Executor* ex;
    index_t n;
  };
  for (const Case& c : {Case{&model, 48}, Case{&sim, 24}}) {
    arch::CoreConfig cfg = arch::lac_4x4_dp();
    const index_t block = 8;
    MatrixD src = random_spd(c.n, 60);
    MatrixD serial = to_matrix<double>(ConstViewD(src.view()));
    MatrixD graphed = to_matrix<double>(ConstViewD(src.view()));

    DriverReport rs = lap_cholesky(*c.ex, cfg, 2.0, block, serial.view());
    DriverReport rg = lap_cholesky_graph(*c.ex, cfg, 2.0, block, graphed.view(), 4);

    // Same factor (both are the blocked algorithm against the same input).
    EXPECT_LT(rel_error(graphed.view(), serial.view()), 1e-8) << c.n;
    // Cycles and energy within the graph-vs-serial tolerance.
    ASSERT_GT(rs.total_cycles.value(), 0.0);
    ASSERT_GT(rs.energy_nj.value(), 0.0);
    EXPECT_LT(std::abs(rg.total_cycles.value() - rs.total_cycles.value()) / rs.total_cycles.value(), 0.35)
        << "cycles " << rg.total_cycles.value() << " vs " << rs.total_cycles.value();
    EXPECT_LT(std::abs(rg.energy_nj.value() - rs.energy_nj.value()) / rs.energy_nj.value(), 0.35)
        << "energy " << rg.energy_nj.value() << " vs " << rs.energy_nj.value();
    // Graph-mode extras are populated.
    EXPECT_EQ(rg.graph_workers, 4u);
    EXPECT_GT(rg.makespan_cycles.value(), 0.0);
    EXPECT_GT(rg.graph_speedup, 1.0);
    EXPECT_LE(rg.makespan_cycles.value(), rg.total_cycles.value());
  }
}

TEST(LapDriver, CholeskySolvesSystemEndToEnd) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  const index_t n = 16;
  MatrixD a = random_spd(n, 7);
  MatrixD a0 = to_matrix<double>(ConstViewD(a.view()));
  MatrixD x_true = random_matrix(n, 2, 8);
  MatrixD b(n, 2, 0.0);
  gemm(Trans::No, Trans::No, 1.0, a0.view(), x_true.view(), 0.0, b.view());

  lap_cholesky(kSim, cfg, 2.0, 8, a.view());
  // Solve L L^T x = b with the accelerator-produced factor.
  trsm(Side::Left, Uplo::Lower, Trans::No, Diag::NonUnit, 1.0, a.view(), b.view());
  trsm(Side::Left, Uplo::Lower, Trans::Yes, Diag::NonUnit, 1.0, a.view(), b.view());
  EXPECT_LT(rel_error(b.view(), x_true.view()), 1e-8);
}

}  // namespace
}  // namespace lac::blas
