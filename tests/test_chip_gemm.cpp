#include "kernels/chip_gemm.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "arch/presets.hpp"
#include "blas/ref_blas.hpp"
#include "common/numeric.hpp"
#include "common/random.hpp"
#include "fabric/model_executor.hpp"
#include "fabric/sim_executor.hpp"
#include "obs/metrics.hpp"

namespace lac::kernels {
namespace {

arch::ChipConfig small_chip(int cores, double y, double z) {
  arch::ChipConfig chip = arch::lap_s8();
  chip.cores = cores;
  chip.onchip_bw_words_per_cycle = y;
  chip.offchip_bw_words_per_cycle = z;
  return chip;
}

TEST(ChipGemm, MatchesReferenceAcrossCores) {
  arch::ChipConfig chip = small_chip(2, 8.0, 4.0);
  const index_t m = 32, n = 16, k = 16;
  MatrixD a = random_matrix(m, k, 1);
  MatrixD b = random_matrix(k, n, 2);
  MatrixD c = random_matrix(m, n, 3);
  ChipGemmResult r = chip_gemm(chip, 16, 16, a.view(), b.view(), c.view());
  MatrixD expect = to_matrix<double>(ConstViewD(c.view()));
  blas::gemm(blas::Trans::No, blas::Trans::No, 1.0, a.view(), b.view(), 1.0,
             expect.view());
  EXPECT_LT(rel_error(r.out.view(), expect.view()), 1e-12);
  EXPECT_EQ(r.stats.mac_ops, m * n * k);
}

TEST(ChipGemm, MoreCoresReduceMakespan) {
  const index_t m = 32, n = 32, k = 16;
  MatrixD a = random_matrix(m, k, 4);
  MatrixD b = random_matrix(k, n, 5);
  MatrixD c(m, n, 0.0);
  ChipGemmResult one = chip_gemm(small_chip(1, 8.0, 8.0), 16, 16, a.view(), b.view(), c.view());
  ChipGemmResult two = chip_gemm(small_chip(2, 8.0, 8.0), 16, 16, a.view(), b.view(), c.view());
  EXPECT_LT(two.cycles.value(), one.cycles.value());
  EXPECT_GT(one.cycles.value() / two.cycles.value(), 1.4);  // near-linear at ample bandwidth
  EXPECT_LT(rel_error(one.out.view(), two.out.view()), 1e-15);
}

TEST(ChipGemm, SharedBandwidthLimitsScaling) {
  // With a starved shared interface, doubling the cores buys little --
  // the Fig 4.3 observation on the simulator.
  const index_t m = 32, n = 32, k = 16;
  MatrixD a = random_matrix(m, k, 6);
  MatrixD b = random_matrix(k, n, 7);
  MatrixD c(m, n, 0.0);
  ChipGemmResult one = chip_gemm(small_chip(1, 1.0, 8.0), 16, 16, a.view(), b.view(), c.view());
  ChipGemmResult two = chip_gemm(small_chip(2, 1.0, 8.0), 16, 16, a.view(), b.view(), c.view());
  EXPECT_LT(one.cycles.value() / two.cycles.value(), 1.3);  // far from the 2x ideal
}

TEST(ChipGemm, OffchipInterfaceChargesPanels) {
  arch::ChipConfig chip = small_chip(2, 16.0, 0.5);
  const index_t m = 16, n = 16, k = 32;  // two rank-kc passes
  MatrixD a = random_matrix(m, k, 8);
  MatrixD b = random_matrix(k, n, 9);
  MatrixD c(m, n, 0.0);
  ChipGemmResult r = chip_gemm(chip, 8, 16, a.view(), b.view(), c.view());
  // Off-chip words: (m*kc + kc*n) per pass * 2 passes.
  EXPECT_GE(r.offchip_words, 2.0 * (m * 16 + 16 * n));
  MatrixD expect = to_matrix<double>(ConstViewD(c.view()));
  blas::gemm(blas::Trans::No, blas::Trans::No, 1.0, a.view(), b.view(), 1.0,
             expect.view());
  EXPECT_LT(rel_error(r.out.view(), expect.view()), 1e-12);
}

TEST(ChipGemm, PooledCoresMatchFreshOnes) {
  // A Chip takes its cores from the thread's SimArena. On a new thread the
  // first request builds them fresh; the second, back to back, reuses
  // them and must return the same output, cycles and Stats.
  arch::ChipConfig chip = small_chip(2, 2.0, 4.0);
  const index_t m = 32, n = 16, k = 16;
  MatrixD a = random_matrix(m, k, 10);
  MatrixD b = random_matrix(k, n, 11);
  MatrixD c = random_matrix(m, n, 12);
  obs::Counter& hits = obs::MetricsRegistry::global().counter("lac.sim.arena.core_hits");
  std::vector<ChipGemmResult> runs;
  std::uint64_t second_hits = 0;
  std::thread worker([&] {
    runs.push_back(chip_gemm(chip, 16, 16, a.view(), b.view(), c.view()));
    const std::uint64_t before = hits.value();
    runs.push_back(chip_gemm(chip, 16, 16, a.view(), b.view(), c.view()));
    second_hits = hits.value() - before;
  });
  worker.join();
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_GE(second_hits, static_cast<std::uint64_t>(chip.cores));
  EXPECT_TRUE(runs[1].out == runs[0].out);
  EXPECT_EQ(runs[1].cycles.value(), runs[0].cycles.value());
  EXPECT_TRUE(runs[1].stats == runs[0].stats);
  EXPECT_EQ(runs[1].offchip_words, runs[0].offchip_words);
}

TEST(ChipGemm, EightCoreChipReusesAllItsPooledCores) {
  // The thread's arena keeps as many idle cores per config as the thread
  // has held at once: after the first request on an 8-core chip, each
  // request takes all eight from the pool and builds none.
  const arch::ChipConfig chip = arch::lap_s8();
  const index_t m = 64, n = 16, k = 8;
  MatrixD a = random_matrix(m, k, 13);
  MatrixD b = random_matrix(k, n, 14);
  MatrixD c = random_matrix(m, n, 15);
  obs::Counter& hits = obs::MetricsRegistry::global().counter("lac.sim.arena.core_hits");
  obs::Counter& misses = obs::MetricsRegistry::global().counter("lac.sim.arena.core_misses");
  std::vector<std::uint64_t> repeat_hits, repeat_misses;
  std::thread worker([&] {
    chip_gemm(chip, 4, 4, a.view(), b.view(), c.view());
    for (int i = 0; i < 2; ++i) {
      const std::uint64_t h = hits.value();
      const std::uint64_t x = misses.value();
      chip_gemm(chip, 4, 4, a.view(), b.view(), c.view());
      repeat_hits.push_back(hits.value() - h);
      repeat_misses.push_back(misses.value() - x);
    }
  });
  worker.join();
  ASSERT_EQ(chip.cores, 8);
  EXPECT_EQ(repeat_hits, (std::vector<std::uint64_t>{8, 8}));
  EXPECT_EQ(repeat_misses, (std::vector<std::uint64_t>{0, 0}));
}

TEST(ChipGemm, BlockingsThatOverflowThePeStoresFailOnBothBackends) {
  // A PE holds (mc/nr)(kc/nr) words of the A tile in MEM-A (2048 words on
  // the 4x4 core) and a kc-word B slice in MEM-B (256 words). kc = 512
  // overflows MEM-B; mc = kc = 256 needs 4096 MEM-A words.
  arch::ChipConfig chip = small_chip(2, 8.0, 4.0);
  struct Case {
    index_t m, n, k, mc, kc;
  };
  for (const Case& t : {Case{8, 4, 512, 4, 512}, Case{512, 4, 256, 256, 256}}) {
    const fabric::KernelRequest req =
        fabric::make_chip_gemm(chip, t.mc, t.kc, random_matrix(t.m, t.k, 16).view(),
                               random_matrix(t.k, t.n, 17).view(),
                               random_matrix(t.m, t.n, 18).view());
    const fabric::KernelResult sim = fabric::SimExecutor().execute(req);
    const fabric::KernelResult model = fabric::ModelExecutor().execute(req);
    EXPECT_FALSE(sim.ok) << "mc " << t.mc << " kc " << t.kc;
    EXPECT_FALSE(model.ok) << "mc " << t.mc << " kc " << t.kc;
    EXPECT_NE(sim.error.find("PE stores"), std::string::npos) << sim.error;
    EXPECT_EQ(model.error, sim.error);
  }
  // The largest blockings that fit still run.
  const fabric::KernelRequest fits = fabric::make_chip_gemm(
      chip, 128, 256, random_matrix(256, 256, 19).view(), random_matrix(256, 4, 20).view(),
      random_matrix(256, 4, 21).view());
  EXPECT_TRUE(fabric::SimExecutor().execute(fits).ok);
}

}  // namespace
}  // namespace lac::kernels
