#include "blas/ref_lapack.hpp"

#include <cmath>

#include "blas/ref_blas.hpp"

namespace lac::blas {

bool cholesky(ViewD a) {
  const index_t n = a.rows();
  for (index_t j = 0; j < n; ++j) {
    double d = a(j, j);
    for (index_t p = 0; p < j; ++p) d -= a(j, p) * a(j, p);
    if (d <= 0.0) return false;
    const double ljj = std::sqrt(d);
    a(j, j) = ljj;
    for (index_t i = j + 1; i < n; ++i) {
      double acc = a(i, j);
      for (index_t p = 0; p < j; ++p) acc -= a(i, p) * a(j, p);
      a(i, j) = acc / ljj;
    }
    for (index_t i = 0; i < j; ++i) a(i, j) = 0.0;  // zero strict upper
  }
  return true;
}

bool lu_partial_pivot(ViewD a, std::vector<index_t>& piv) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  const index_t steps = std::min(m, n);
  piv.assign(static_cast<std::size_t>(steps), 0);
  for (index_t j = 0; j < steps; ++j) {
    index_t p = j;
    double best = std::abs(a(j, j));
    for (index_t i = j + 1; i < m; ++i) {
      if (std::abs(a(i, j)) > best) {
        best = std::abs(a(i, j));
        p = i;
      }
    }
    piv[static_cast<std::size_t>(j)] = p;
    if (best == 0.0) return false;
    if (p != j)
      for (index_t c = 0; c < n; ++c) std::swap(a(j, c), a(p, c));
    const double inv = 1.0 / a(j, j);
    for (index_t i = j + 1; i < m; ++i) a(i, j) *= inv;
    for (index_t c = j + 1; c < n; ++c) {
      const double ujc = a(j, c);
      for (index_t i = j + 1; i < m; ++i) a(i, c) -= a(i, j) * ujc;
    }
  }
  return true;
}

void apply_pivots(ViewD b, const std::vector<index_t>& piv) {
  for (std::size_t j = 0; j < piv.size(); ++j) {
    const index_t p = piv[j];
    if (p != static_cast<index_t>(j))
      for (index_t c = 0; c < b.cols(); ++c)
        std::swap(b(static_cast<index_t>(j), c), b(p, c));
  }
}

void lu_solve(ConstViewD lu, const std::vector<index_t>& piv, ViewD b) {
  apply_pivots(b, piv);
  trsm(Side::Left, Uplo::Lower, Trans::No, Diag::Unit, 1.0, lu, b);
  trsm(Side::Left, Uplo::Upper, Trans::No, Diag::NonUnit, 1.0, lu, b);
}

Householder house(double& alpha, index_t n2, double* x2) {
  // Efficient formulation of Table 6.1 (right column).
  Householder h;
  const double chi2 = nrm2(n2, x2);
  // tau = 1/2 with u2 = 0 is the reflection I - 2 e1 e1^T, and the trailing
  // update and qr_form_q apply it as one: a zero tail still reflects alpha
  // to rho = -alpha (the general formula below, as on the fabric). Only an
  // all-zero column needs a case of its own (nu = 0); its image is zero.
  if (chi2 == 0.0 && alpha == 0.0) {
    h.tau = 0.5;
    h.rho = alpha;
    return h;
  }
  const double norm_x = std::hypot(alpha, chi2);
  const double rho = alpha >= 0.0 ? -norm_x : norm_x;  // rho = -sign(alpha)*||x||
  const double nu = alpha - rho;
  for (index_t i = 0; i < n2; ++i) x2[i] /= nu;
  const double chi2_scaled = chi2 / std::abs(nu);
  h.tau = (1.0 + chi2_scaled * chi2_scaled) / 2.0;
  h.rho = rho;
  alpha = rho;
  return h;
}

std::vector<double> qr_householder(ViewD a) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  std::vector<double> taus;
  taus.reserve(static_cast<std::size_t>(n));
  std::vector<double> w(static_cast<std::size_t>(n), 0.0);
  for (index_t j = 0; j < n; ++j) {
    double alpha = a(j, j);
    const index_t tail = m - j - 1;
    double* tail_ptr = tail > 0 ? &a(j + 1, j) : nullptr;
    Householder h = house(alpha, tail, tail_ptr);
    a(j, j) = alpha;
    taus.push_back(h.tau);
    if (j + 1 >= n) continue;
    // w^T = (a12^T + u2^T A22) / tau;  then A22 -= u2 w^T, a12 -= w.
    const index_t m2 = m - j - 1;
    const index_t n2 = n - j - 1;
    for (index_t c = 0; c < n2; ++c) {
      double acc = a(j, j + 1 + c);
      for (index_t r = 0; r < m2; ++r) acc += a(j + 1 + r, j) * a(j + 1 + r, j + 1 + c);
      w[static_cast<std::size_t>(c)] = acc / h.tau;
    }
    for (index_t c = 0; c < n2; ++c) {
      a(j, j + 1 + c) -= w[static_cast<std::size_t>(c)];
      for (index_t r = 0; r < m2; ++r)
        a(j + 1 + r, j + 1 + c) -= a(j + 1 + r, j) * w[static_cast<std::size_t>(c)];
    }
  }
  return taus;
}

MatrixD qr_form_q(ConstViewD a_fact, const std::vector<double>& taus) {
  const index_t m = a_fact.rows();
  const index_t n = a_fact.cols();
  MatrixD q(m, m, 0.0);
  for (index_t i = 0; i < m; ++i) q(i, i) = 1.0;
  // Apply H_j = I - (1;u2)(1;u2)^T / tau_j for j = n-1 .. 0 to Q.
  std::vector<double> u(static_cast<std::size_t>(m), 0.0);
  for (index_t j = n - 1; j >= 0; --j) {
    const double tau = taus[static_cast<std::size_t>(j)];
    for (index_t i = 0; i < m; ++i)
      u[static_cast<std::size_t>(i)] = i < j ? 0.0 : (i == j ? 1.0 : a_fact(i, j));
    for (index_t c = 0; c < m; ++c) {
      double dot = 0.0;
      for (index_t r = j; r < m; ++r) dot += u[static_cast<std::size_t>(r)] * q(r, c);
      dot /= tau;
      for (index_t r = j; r < m; ++r) q(r, c) -= u[static_cast<std::size_t>(r)] * dot;
    }
  }
  MatrixD thin(m, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) thin(i, j) = q(i, j);
  return thin;
}

}  // namespace lac::blas
