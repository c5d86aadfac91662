#include "fft/fft_kernel.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "arch/presets.hpp"
#include "common/random.hpp"
#include "fft/reference_fft.hpp"

namespace lac::fft {
namespace {

std::vector<cplx> random_signal(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<cplx> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return x;
}

double max_err(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

TEST(ButterflySchedule, HostMatchesDirectFourPointDft) {
  auto x = random_signal(4, 1);
  std::array<cplx, 4> in{x[0], x[1], x[2], x[3]};
  auto y = butterfly_host(in, {cplx{1, 0}, cplx{1, 0}, cplx{1, 0}});
  auto ref = dft(x);
  // Digit-ordered outputs with unit twiddles: a 4-point DFT in order.
  for (int i = 0; i < 4; ++i)
    EXPECT_NEAR(std::abs(y[static_cast<std::size_t>(i)] -
                         ref[static_cast<std::size_t>(i)]),
                0.0, 1e-12);
}

TEST(ButterflySchedule, SimMatchesHostBitForBit) {
  sim::MeshLanes lanes(1, 1);  // a one-PE mesh
  sim::MacPipeline mac(5, lanes, 0);
  auto x = random_signal(4, 2);
  const cplx w1{0.8, -0.6};
  std::array<cplx, 3> w{w1, w1 * w1, w1 * w1 * w1};
  std::array<TimedCplx, 4> in;
  for (int i = 0; i < 4; ++i) in[static_cast<std::size_t>(i)] = timed(x[static_cast<std::size_t>(i)], 0.0);
  auto host = butterfly_host({x[0], x[1], x[2], x[3]}, w);
  auto simr = butterfly_sim(mac, in, w);
  for (int i = 0; i < 4; ++i)
    EXPECT_NEAR(std::abs(simr[static_cast<std::size_t>(i)].value() -
                         host[static_cast<std::size_t>(i)]),
                0.0, 1e-13);
}

TEST(ButterflySchedule, IssuesExactly28FmaSlots) {
  sim::MeshLanes lanes(1, 1);  // a one-PE mesh
  sim::MacPipeline mac(5, lanes, 0);
  std::array<TimedCplx, 4> in;
  for (int i = 0; i < 4; ++i) in[static_cast<std::size_t>(i)] = timed({1.0, -1.0}, 0.0);
  butterfly_sim(mac, in, {cplx{0.6, 0.8}, cplx{1, 0}, cplx{0, 1}});
  EXPECT_EQ(mac.mac_ops() + mac.mul_ops(), kButterflyFmaOps);
}

TEST(Fft64Kernel, MatchesReferenceFft) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  auto x = random_signal(64, 3);
  FftResult r = fft64_core(cfg, x);
  auto ref = fft_radix4(x);
  EXPECT_LT(max_err(r.out, ref), 1e-11);
}

TEST(Fft64Kernel, ImpulseAndTone) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  std::vector<cplx> imp(64, cplx{0, 0});
  imp[7] = {1, 0};
  FftResult r = fft64_core(cfg, imp);
  for (index_t k = 0; k < 64; ++k)
    EXPECT_NEAR(std::abs(r.out[static_cast<std::size_t>(k)]), 1.0, 1e-10);
}

TEST(Fft64Kernel, CommunicationHiddenBehindCompute) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  auto x = random_signal(64, 4);
  FftResult r = fft64_core(cfg, x);
  // 3 stages x 28 slots = 84 compute cycles per PE; bus traffic (24
  // transfers per bus per exchange stage) must largely hide behind it.
  EXPECT_EQ(r.stats.mac_ops + r.stats.mul_ops, 16 * 3 * 28);
  EXPECT_LT(r.cycles.value(), 3.5 * 84.0);
  EXPECT_GT(r.utilization, 0.30);
}

TEST(Fft64Kernel, BatchingAmortizesIo) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  std::vector<std::vector<cplx>> frames;
  for (int i = 0; i < 8; ++i) frames.push_back(random_signal(64, 10 + static_cast<std::uint64_t>(i)));
  FftResult batched = fft64_batched(cfg, 4.0, frames);
  FftResult single = fft64_core(cfg, frames[0]);
  const double per_frame = batched.cycles.value() / 8.0;
  EXPECT_LT(per_frame, single.cycles.value());
  // Last frame's spectrum is returned and must be correct.
  EXPECT_LT(max_err(batched.out, fft_radix4(frames.back())), 1e-11);
}

TEST(Fft64Kernel, BandwidthStarvationDegradesOverlap) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  std::vector<std::vector<cplx>> frames;
  for (int i = 0; i < 4; ++i) frames.push_back(random_signal(64, 20 + static_cast<std::uint64_t>(i)));
  FftResult fast = fft64_batched(cfg, 4.0, frames);
  FftResult slow = fft64_batched(cfg, 0.5, frames);
  EXPECT_GT(slow.cycles.value(), fast.cycles.value());
  EXPECT_LT(slow.utilization, fast.utilization);
}

}  // namespace
}  // namespace lac::fft
