#include "kernels/qr_kernel.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "arch/presets.hpp"
#include "blas/ref_blas.hpp"
#include "blas/ref_lapack.hpp"
#include "common/numeric.hpp"
#include "common/random.hpp"

namespace lac::kernels {
namespace {

TEST(QrKernel, PanelMatchesReferenceFactorization) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD a = random_matrix(16, 4, 1);
  QrResult r = qr_panel(cfg, a.view());
  MatrixD expect = to_matrix<double>(ConstViewD(a.view()));
  auto taus = blas::qr_householder(expect.view());
  EXPECT_LT(rel_error(r.kernel.out.view(), expect.view()), 1e-10);
  ASSERT_EQ(r.taus.size(), taus.size());
  for (std::size_t j = 0; j < taus.size(); ++j)
    EXPECT_NEAR(r.taus[j], taus[j], 1e-10 * std::max(1.0, std::abs(taus[j])));
}

TEST(QrKernel, RDiagonalSignsFollowConvention) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD a = random_matrix(24, 4, 2);
  QrResult r = qr_panel(cfg, a.view());
  // rho = -sign(alpha)*||x||: diagonal entries are nonzero for a random
  // full-rank panel.
  for (int j = 0; j < 4; ++j) EXPECT_GT(std::abs(r.kernel.out(j, j)), 1e-12);
}

TEST(QrKernel, ReconstructsPanelThroughQ) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD a = random_matrix(12, 4, 3);
  QrResult r = qr_panel(cfg, a.view());
  MatrixD q = blas::qr_form_q(r.kernel.out.view(), r.taus);
  MatrixD rmat(4, 4, 0.0);
  for (index_t j = 0; j < 4; ++j)
    for (index_t i = 0; i <= j; ++i) rmat(i, j) = r.kernel.out(i, j);
  MatrixD rec(12, 4, 0.0);
  blas::gemm(blas::Trans::No, blas::Trans::No, 1.0, q.view(), rmat.view(), 0.0,
             rec.view());
  EXPECT_TRUE(allclose(rec.view(), a.view(), 1e-9));
}

TEST(QrKernel, TallerPanelsAmortizeOverheads) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD small = random_matrix(8, 4, 4);
  MatrixD tall = random_matrix(64, 4, 5);
  QrResult rs = qr_panel(cfg, small.view());
  QrResult rt = qr_panel(cfg, tall.view());
  const double eff_s = rs.kernel.stats.flops() / rs.kernel.cycles.value();
  const double eff_t = rt.kernel.stats.flops() / rt.kernel.cycles.value();
  EXPECT_GT(eff_t, eff_s);
}

TEST(QrKernel, SfuLatencyVisibleInCycles) {
  MatrixD a = random_matrix(32, 4, 6);
  arch::CoreConfig fast = arch::lac_4x4_dp();
  fast.sfu = arch::SfuOption::IsolatedUnit;
  arch::CoreConfig slow = fast;
  slow.sfu = arch::SfuOption::Software;
  QrResult rf = qr_panel(fast, a.view());
  QrResult rsw = qr_panel(slow, a.view());
  EXPECT_GT(rsw.kernel.cycles.value(), rf.kernel.cycles.value());
  EXPECT_LT(rel_error(rsw.kernel.out.view(), rf.kernel.out.view()), 1e-14);
}

/// Panel factored on the fabric and by the host reference: the same taus and
/// R/reflector block, and Q * R rebuilds the panel.
void expect_panel_matches_reference(const arch::CoreConfig& cfg, const MatrixD& a) {
  const index_t k = a.rows();
  const int nr = cfg.nr;
  QrResult r = qr_panel(cfg, a.view());
  MatrixD expect = to_matrix<double>(ConstViewD(a.view()));
  auto taus = blas::qr_householder(expect.view());
  EXPECT_LT(rel_error(r.kernel.out.view(), expect.view()), 1e-12);
  for (int j = 0; j < nr; ++j)  // the sign of R's diagonal in particular
    EXPECT_EQ(std::signbit(r.kernel.out(j, j)), std::signbit(expect(j, j))) << j;
  ASSERT_EQ(r.taus.size(), taus.size());
  for (std::size_t j = 0; j < taus.size(); ++j)
    EXPECT_NEAR(r.taus[j], taus[j], 1e-12 * std::max(1.0, std::abs(taus[j]))) << j;
  for (const MatrixD* f : {&r.kernel.out, &expect}) {
    MatrixD q = blas::qr_form_q(f->view(), taus);
    MatrixD rmat(nr, nr, 0.0);
    for (index_t j = 0; j < nr; ++j)
      for (index_t i = 0; i <= j; ++i) rmat(i, j) = (*f)(i, j);
    MatrixD rec(k, nr, 0.0);
    blas::gemm(blas::Trans::No, blas::Trans::No, 1.0, q.view(), rmat.view(), 0.0,
               rec.view());
    EXPECT_TRUE(allclose(rec.view(), a.view(), 1e-10));
  }
}

// Square panels (k == nr): the last column's tail is empty, so its
// reflector has a zero tail for either sign of alpha = A(k-1, k-1) at that
// step. The sign of the entry is set through the last column.
TEST(QrKernel, SquarePanelZeroTailMatchesReference) {
  for (const arch::CoreConfig& cfg : {arch::lac_4x4_dp(), arch::lac_8x8_dp()}) {
    const int nr = cfg.nr;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      MatrixD a = random_matrix(nr, nr, 100 + seed);
      expect_panel_matches_reference(cfg, a);
      // Flip the last column to reach the other sign of alpha.
      for (index_t i = 0; i < nr; ++i) a(i, nr - 1) = -a(i, nr - 1);
      expect_panel_matches_reference(cfg, a);
    }
  }
}

// A zero tail in mid-panel: column 1 is zero below the diagonal (rows 2..k)
// once column 0 is reflected, because both start as multiples of e1 and e2.
TEST(QrKernel, MidPanelZeroTailMatchesReference) {
  const arch::CoreConfig cfg = arch::lac_4x4_dp();
  for (double alpha : {2.5, -2.5}) {
    MatrixD a = random_matrix(12, 4, 7);
    for (index_t i = 0; i < 12; ++i) {
      a(i, 0) = i == 0 ? 1.5 : 0.0;
      a(i, 1) = i == 0 ? 0.75 : (i == 1 ? alpha : 0.0);
    }
    expect_panel_matches_reference(cfg, a);
  }
}

}  // namespace
}  // namespace lac::kernels
