#include "fft/radix4_schedule.hpp"

namespace lac::fft {

TimedCplx timed(cplx v, sim::time_t_ ready) {
  return {sim::at(v.real(), ready), sim::at(v.imag(), ready)};
}

std::array<cplx, 4> butterfly_host(const std::array<cplx, 4>& x,
                                   const std::array<cplx, 3>& w) {
  const cplx neg_i{0.0, -1.0};
  const cplx t0 = x[0] + x[2];
  const cplx t1 = x[0] - x[2];
  const cplx t2 = x[1] + x[3];
  const cplx t3 = (x[1] - x[3]) * neg_i;
  // Outputs in base-4 digit order (matches the in-place DIF reference).
  return {t0 + t2, (t1 + t3) * w[0], (t0 - t2) * w[1], (t1 - t3) * w[2]};
}

namespace {

/// Complex add/sub on the MAC: two FMA-class slots (one per component).
TimedCplx cadd(sim::MacPipeline& mac, const TimedCplx& a, const TimedCplx& b) {
  return {mac.add(a.re, b.re), mac.add(a.im, b.im)};
}
TimedCplx csub(sim::MacPipeline& mac, const TimedCplx& a, const TimedCplx& b) {
  TimedCplx nb{sim::at(-b.re.v, b.re.ready), sim::at(-b.im.v, b.im.ready)};
  return {mac.add(a.re, nb.re), mac.add(a.im, nb.im)};
}
/// -i * a (swap + negate): free in the wiring, no FMA slots.
TimedCplx cmul_negi(const TimedCplx& a) {
  return {a.im, {-a.re.v, a.re.ready}};
}
/// Complex multiply by a twiddle constant: four FMA slots
/// (two muls feeding two fused multiply-adds).
LAC_FMA_DISPATCH
TimedCplx cmul_w(sim::MacPipeline& mac, const TimedCplx& a, cplx w) {
  sim::TimedVal m_re = mac.mul(a.re, sim::at(w.real(), 0.0));
  sim::TimedVal m_im = mac.mul(a.im, sim::at(w.real(), 0.0));
  sim::TimedVal re = mac.fma(sim::at(-w.imag(), 0.0), a.im, m_re);
  sim::TimedVal im = mac.fma(sim::at(w.imag(), 0.0), a.re, m_im);
  return {re, im};
}

}  // namespace

std::array<TimedCplx, 4> butterfly_sim(sim::MacPipeline& mac,
                                       const std::array<TimedCplx, 4>& x,
                                       const std::array<cplx, 3>& w) {
  // Add network first (8 two-slot nodes), twiddle products last (3
  // four-slot nodes): with the adds of independent butterflies interleaved
  // ahead of the products, the pipeline sees no bubbles (Fig B.1 ordering).
  TimedCplx t0 = cadd(mac, x[0], x[2]);
  TimedCplx t1 = csub(mac, x[0], x[2]);
  TimedCplx t2 = cadd(mac, x[1], x[3]);
  TimedCplx t3 = cmul_negi(csub(mac, x[1], x[3]));
  TimedCplx y0 = cadd(mac, t0, t2);
  TimedCplx s13 = cadd(mac, t1, t3);
  TimedCplx d02 = csub(mac, t0, t2);
  TimedCplx d13 = csub(mac, t1, t3);
  TimedCplx y1 = cmul_w(mac, s13, w[0]);
  TimedCplx y2 = cmul_w(mac, d02, w[1]);
  TimedCplx y3 = cmul_w(mac, d13, w[2]);
  return {y0, y1, y2, y3};
}

}  // namespace lac::fft
