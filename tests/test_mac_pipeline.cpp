#include "sim/mac_pipeline.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace lac::sim {
namespace {

TEST(MacPipeline, SingleCycleAccumulationThroughput) {
  // Delayed normalization: chained MACs into one accumulator issue every
  // cycle regardless of pipeline depth (§3.2).
  MeshLanes lanes(1, 1);  // a one-PE mesh
  MacPipeline mac(8, lanes, 0);
  mac.set_acc(0, at(0.0, 0.0));
  for (int i = 0; i < 16; ++i) mac.mac_into_acc(0, at(1.0, 0.0), at(2.0, 0.0));
  TimedVal acc = mac.read_acc(0);
  EXPECT_DOUBLE_EQ(acc.v, 32.0);
  // Last issue at cycle 15, result after the p=8 drain.
  EXPECT_DOUBLE_EQ(acc.ready, 15.0 + 8.0);
  EXPECT_EQ(mac.mac_ops(), 16);
}

TEST(MacPipeline, DependentFmaWaitsFullLatency) {
  MeshLanes lanes(1, 1);  // a one-PE mesh
  MacPipeline mac(5, lanes, 0);
  TimedVal r1 = mac.fma(at(2.0, 0.0), at(3.0, 0.0), at(1.0, 0.0));
  EXPECT_DOUBLE_EQ(r1.v, 7.0);
  EXPECT_DOUBLE_EQ(r1.ready, 5.0);
  // A consumer of r1 cannot issue before cycle 5.
  TimedVal r2 = mac.fma(r1, at(1.0, 0.0), at(0.0, 0.0));
  EXPECT_DOUBLE_EQ(r2.ready, 10.0);
}

TEST(MacPipeline, IndependentOpsPipelineBackToBack) {
  MeshLanes lanes(1, 1);  // a one-PE mesh
  MacPipeline mac(5, lanes, 0);
  TimedVal a = mac.mul(at(1.0, 0.0), at(2.0, 0.0));
  TimedVal b = mac.mul(at(3.0, 0.0), at(4.0, 0.0));
  EXPECT_DOUBLE_EQ(a.ready, 5.0);
  EXPECT_DOUBLE_EQ(b.ready, 6.0);  // issued one cycle later
  EXPECT_EQ(mac.mul_ops(), 2);
}

TEST(MacPipeline, AccumulatorPreloadGatesChain) {
  MeshLanes lanes(1, 2);  // a one-PE mesh
  MacPipeline mac(4, lanes, 0);
  mac.set_acc(1, at(10.0, 20.0));  // e.g. C block arrives from DMA at t=20
  mac.mac_into_acc(1, at(1.0, 0.0), at(1.0, 0.0));
  TimedVal acc = mac.read_acc(1);
  EXPECT_DOUBLE_EQ(acc.v, 11.0);
  EXPECT_GE(acc.ready, 20.0 + 4.0);
}

TEST(MacPipeline, CompareWithAndWithoutExtension) {
  MeshLanes lanes(1, 1);  // a one-PE mesh
  MacPipeline mac(5, lanes, 0);
  TimedVal fast = mac.compare_abs_max(at(-3.0, 0.0), at(2.0, 0.0), true);
  EXPECT_DOUBLE_EQ(fast.v, -3.0);  // larger magnitude wins, sign kept
  EXPECT_DOUBLE_EQ(fast.ready, 1.0);
  MeshLanes lanes2(1, 1);  // a one-PE mesh
  MacPipeline mac2(5, lanes2, 0);
  TimedVal slow = mac2.compare_abs_max(at(-3.0, 0.0), at(2.0, 0.0), false);
  EXPECT_DOUBLE_EQ(slow.v, -3.0);
  EXPECT_GT(slow.ready, 5.0);  // emulation drains the pipeline
}

TEST(MacPipeline, OccupyBlocksIssuePort) {
  MeshLanes lanes(1, 1);  // a one-PE mesh
  MacPipeline mac(5, lanes, 0);
  mac.occupy(0.0, 27.0);  // software Goldschmidt divide
  TimedVal r = mac.mul(at(1.0, 0.0), at(1.0, 0.0));
  EXPECT_GE(r.ready - 5.0, 27.0);  // could not issue before cycle 27
}

TEST(MacPipeline, FusedArithmeticIsCorrect) {
  MeshLanes lanes(1, 1);  // a one-PE mesh
  MacPipeline mac(5, lanes, 0);
  const double a = 1.0 + std::ldexp(1.0, -30);
  const double b = 1.0 - std::ldexp(1.0, -30);
  // a*b = 1 - 2^-60: a separate mul+add would round the product to 1.0
  // and return exactly 0; the fused op keeps the -2^-60 residue.
  TimedVal r = mac.fma(at(a, 0.0), at(b, 0.0), at(-1.0, 0.0));
  EXPECT_LT(r.v, 0.0);
  EXPECT_DOUBLE_EQ(r.v, -std::ldexp(1.0, -60));
}

}  // namespace
}  // namespace lac::sim
