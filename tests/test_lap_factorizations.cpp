// Blocked LU and QR through the accelerator driver (algorithms-by-blocks).
#include <gtest/gtest.h>

#include "arch/presets.hpp"
#include "blas/lap_driver.hpp"
#include "blas/ref_blas.hpp"
#include "blas/ref_lapack.hpp"
#include "common/numeric.hpp"
#include "common/random.hpp"
#include "fabric/sim_executor.hpp"

namespace lac::blas {
namespace {

const fabric::SimExecutor kSim;

TEST(LapLu, ReconstructsPaEqualsLu) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  const index_t n = 16;
  MatrixD a = random_matrix(n, n, 11);
  MatrixD a0 = to_matrix<double>(ConstViewD(a.view()));
  std::vector<index_t> piv;
  DriverReport rep = lap_lu(kSim, cfg, 2.0, a.view(), piv);
  EXPECT_GT(rep.kernel_calls, 4);

  // P*A == L*U with the driver's own factors.
  MatrixD pa = a0;
  apply_pivots(pa.view(), piv);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) {
      double acc = 0.0;
      const index_t lim = std::min(i, j);
      for (index_t p = 0; p <= lim; ++p) {
        const double lv = p == i ? 1.0 : a(i, p);
        acc += lv * a(p, j);
      }
      EXPECT_NEAR(acc, pa(i, j), 1e-9 * std::max(1.0, std::abs(pa(i, j))))
          << i << "," << j;
    }
}

TEST(LapLu, SolvesLinearSystem) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  const index_t n = 24;
  MatrixD a = random_matrix(n, n, 12);
  MatrixD a0 = to_matrix<double>(ConstViewD(a.view()));
  MatrixD x_true = random_matrix(n, 2, 13);
  MatrixD b(n, 2, 0.0);
  gemm(Trans::No, Trans::No, 1.0, a0.view(), x_true.view(), 0.0, b.view());
  std::vector<index_t> piv;
  lap_lu(kSim, cfg, 2.0, a.view(), piv);
  lu_solve(a.view(), piv, b.view());
  EXPECT_LT(rel_error(b.view(), x_true.view()), 1e-8);
}

TEST(LapLu, TallPanelFactorization) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD a = random_matrix(32, 8, 14);
  MatrixD a0 = to_matrix<double>(ConstViewD(a.view()));
  std::vector<index_t> piv;
  lap_lu(kSim, cfg, 2.0, a.view(), piv);
  MatrixD pa = a0;
  apply_pivots(pa.view(), piv);
  for (index_t j = 0; j < 8; ++j)
    for (index_t i = 0; i < 32; ++i) {
      double acc = 0.0;
      const index_t lim = std::min<index_t>(i, j);
      for (index_t p = 0; p <= lim; ++p)
        acc += (p == i ? 1.0 : a(i, p)) * a(p, j);
      EXPECT_NEAR(acc, pa(i, j), 1e-9 * std::max(1.0, std::abs(pa(i, j))));
    }
}

TEST(LapQr, MatchesReferenceFactors) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD a = random_matrix(16, 8, 15);
  MatrixD expect = to_matrix<double>(ConstViewD(a.view()));
  auto ref_taus = qr_householder(expect.view());
  std::vector<double> taus;
  DriverReport rep = lap_qr(kSim, cfg, 2.0, a.view(), taus);
  EXPECT_GT(rep.kernel_calls, 1);
  ASSERT_EQ(taus.size(), ref_taus.size());
  EXPECT_LT(rel_error(a.view(), expect.view()), 1e-9);
  for (std::size_t i = 0; i < taus.size(); ++i)
    EXPECT_NEAR(taus[i], ref_taus[i], 1e-9 * std::max(1.0, std::abs(ref_taus[i])));
}

TEST(LapQr, ReconstructsInputThroughQ) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  const index_t m = 24, n = 8;
  MatrixD a = random_matrix(m, n, 16);
  MatrixD a0 = to_matrix<double>(ConstViewD(a.view()));
  std::vector<double> taus;
  lap_qr(kSim, cfg, 2.0, a.view(), taus);
  MatrixD q = qr_form_q(a.view(), taus);
  MatrixD r(n, n, 0.0);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i <= j; ++i) r(i, j) = a(i, j);
  MatrixD rec(m, n, 0.0);
  gemm(Trans::No, Trans::No, 1.0, q.view(), r.view(), 0.0, rec.view());
  EXPECT_TRUE(allclose(rec.view(), a0.view(), 1e-9));
}

}  // namespace
}  // namespace lac::blas
