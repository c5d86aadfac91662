// Energy/power/area accounting through the fabric execution layer: the
// activity-based (sim) and closed-form (model) energy estimates must agree
// within pinned per-kernel tolerances -- the energy analogue of the cycle
// calibration in test_fabric.cpp -- and the derived efficiency metrics must
// land inside the paper's 45nm bands. Also covers technology scaling, the
// clock override, failure accounting, and the driver roll-up.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "arch/presets.hpp"
#include "blas/lap_driver.hpp"
#include "common/random.hpp"
#include "fabric/model_executor.hpp"
#include "fabric/sim_executor.hpp"
#include "power/energy_model.hpp"

namespace lac::fabric {
namespace {

const SimExecutor kSim;
const ModelExecutor kModel;

/// Relative sim-vs-model energy tolerance per kernel kind, pinned from the
/// calibration sweep (GEMM's activity mix is exactly the steady-state the
/// busy-power model assumes; the factorizations lean on SFU/compare events
/// the closed form only sees through utilization; the FFT's static
/// schedule lets the closed form price the exact activity counts).
double energy_tolerance(KernelKind kind) {
  // Exhaustive on purpose (-Wswitch): a new kernel must pin its band here.
  // Test-local pin tables like this one are exempt from the CI
  // stray-switch grep, which guards the product dispatch layers only.
  switch (kind) {
    case KernelKind::Gemm:
    case KernelKind::ChipGemm:
      return 0.10;
    case KernelKind::Syrk:
    case KernelKind::Syr2k:
    case KernelKind::Cholesky:
    case KernelKind::Lu:
      return 0.15;
    case KernelKind::Fft:
      return 0.05;
    case KernelKind::Trsm:
    case KernelKind::Qr:
    case KernelKind::Vnorm:
      return 0.30;
  }
  ADD_FAILURE() << "no pinned energy tolerance for " << to_string(kind);
  return 0.30;
}

void expect_energy_parity(const KernelRequest& req) {
  KernelResult sim = kSim.execute(req);
  KernelResult model = kModel.execute(req);
  ASSERT_TRUE(sim.ok) << to_string(req.kind) << ": " << sim.error;
  ASSERT_TRUE(model.ok) << to_string(req.kind) << ": " << model.error;
  const double tol = energy_tolerance(req.kind);
  EXPECT_GT(sim.energy_nj.value(), 0.0) << to_string(req.kind);
  EXPECT_GT(model.energy_nj.value(), 0.0) << to_string(req.kind);
  EXPECT_NEAR(sim.energy_nj.value(), model.energy_nj.value(), tol * model.energy_nj.value())
      << to_string(req.kind) << " energy: sim=" << sim.energy_nj.value()
      << " model=" << model.energy_nj.value();
  EXPECT_GT(sim.avg_power_w.value(), 0.0);
  EXPECT_GT(model.avg_power_w.value(), 0.0);
  // Both backends evaluate the same silicon: area is the closed-form model
  // on both sides.
  EXPECT_NEAR(sim.area_mm2.value(), model.area_mm2.value(), 1e-12);
  EXPECT_GT(sim.area_mm2.value(), 0.0);
  // The Metrics summary is filled consistently with the scalar fields.
  EXPECT_DOUBLE_EQ(sim.metrics.watts.value(), sim.avg_power_w.value());
  EXPECT_DOUBLE_EQ(model.metrics.area_mm2.value(), model.area_mm2.value());
  EXPECT_GT(model.metrics.gflops(), 0.0);
}

TEST(EnergyParity, AllCoreKernels) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD a = random_matrix(32, 32, 1);
  MatrixD b = random_matrix(32, 64, 2);
  MatrixD c = random_matrix(32, 64, 3);
  MatrixD cs = random_matrix(32, 32, 4);
  MatrixD l = random_lower_triangular(32, 5);
  MatrixD bb = random_matrix(32, 32, 6);
  MatrixD spd = random_spd(32, 7);
  MatrixD panel = random_matrix(32, 4, 8);
  std::vector<double> x(256);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::sin(0.37 * static_cast<double>(i + 1));

  for (double bw : {0.5, 2.0, 8.0}) {
    expect_energy_parity(make_gemm(cfg, bw, a.view(), b.view(), c.view()));
    expect_energy_parity(make_syrk(cfg, bw, a.view(), cs.view()));
    expect_energy_parity(make_syr2k(cfg, bw, a.view(), bb.view(), cs.view()));
    expect_energy_parity(make_trsm(cfg, bw, l.view(), bb.view()));
    expect_energy_parity(make_cholesky(cfg, bw, spd.view()));
  }
  expect_energy_parity(make_lu(cfg, panel.view()));
  expect_energy_parity(make_qr(cfg, panel.view()));
  expect_energy_parity(make_vnorm(cfg, x));

  // The tenth kernel: the FFT's activity counts are exactly predictable
  // from the static schedule, so the closed form prices the same events
  // the simulator records and the parity band is the tightest of all.
  for (double bw : {0.5, 2.0, 8.0}) {
    expect_energy_parity(make_fft(cfg, bw, random_cplx_vector(64, 12)));
    expect_energy_parity(make_fft(cfg, bw, random_cplx_vector(512, 13)));
  }
  expect_energy_parity(make_fft(cfg, 4.0, random_cplx_vector(4096, 14),
                                FftVariant::FourStep));

  arch::ChipConfig chip = arch::lap_s8();
  chip.cores = 2;
  MatrixD ca = random_matrix(32, 32, 9);
  MatrixD cb = random_matrix(32, 32, 10);
  MatrixD cc = random_matrix(32, 32, 11);
  expect_energy_parity(make_chip_gemm(chip, 16, 16, ca.view(), cb.view(), cc.view()));
  // The NUCA organisation prices a shared-memory word several times the
  // banked SRAM's; both backends must take the same branch (regression:
  // the sim side once priced NUCA words at SRAM energy).
  chip.mem_kind = arch::OnChipMemKind::Nuca;
  expect_energy_parity(make_chip_gemm(chip, 16, 16, ca.view(), cb.view(), cc.view()));
}

TEST(EnergyAccounting, FailedRequestsReportZeroEnergyOnBothBackends) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD not_spd = random_matrix(16, 16, 20);
  for (index_t i = 0; i < 16; ++i) not_spd(i, i) = -1.0;
  MatrixD zero_panel(16, 4, 0.0);  // zero pivot column
  std::vector<KernelRequest> failing;
  failing.push_back(make_cholesky(cfg, 2.0, not_spd.view()));
  failing.push_back(make_lu(cfg, zero_panel.view()));
  for (const Executor* ex : {static_cast<const Executor*>(&kSim),
                             static_cast<const Executor*>(&kModel)}) {
    for (const KernelRequest& req : failing) {
      KernelResult res = ex->execute(req);
      EXPECT_FALSE(res.ok) << res.backend << " " << to_string(req.kind);
      EXPECT_EQ(res.energy_nj.value(), 0.0) << res.backend << " " << to_string(req.kind);
      EXPECT_EQ(res.avg_power_w.value(), 0.0) << res.backend;
      EXPECT_EQ(res.area_mm2.value(), 0.0) << res.backend;
      EXPECT_EQ(res.metrics.gflops(), 0.0) << res.backend;
      EXPECT_EQ(res.metrics.watts.value(), 0.0) << res.backend;
    }
  }
}

TEST(EnergyAccounting, GoldenGflopsPerWattBandAt45nm) {
  // The dissertation's headline: the DP LAC at 45nm/1GHz sustains on the
  // order of 25-40 GFLOPS/W on GEMM-class work. Both backends must land in
  // a generous band around that (a 10x regression in either direction is a
  // model bug, not calibration drift).
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD a = random_matrix(32, 32, 30);
  MatrixD b = random_matrix(32, 64, 31);
  MatrixD c = random_matrix(32, 64, 32);
  KernelRequest req = make_gemm(cfg, 8.0, a.view(), b.view(), c.view());
  for (const Executor* ex : {static_cast<const Executor*>(&kSim),
                             static_cast<const Executor*>(&kModel)}) {
    KernelResult res = ex->execute(req);
    ASSERT_TRUE(res.ok);
    EXPECT_GT(res.metrics.gflops_per_w(), 20.0) << res.backend;
    EXPECT_LT(res.metrics.gflops_per_w(), 60.0) << res.backend;
    EXPECT_GT(res.metrics.gflops(), 10.0) << res.backend;   // ~peak 32 GFLOPS
    EXPECT_LT(res.metrics.gflops(), 32.1) << res.backend;
    EXPECT_GT(res.metrics.energy_delay().value(), 0.0) << res.backend;
  }
}

TEST(EnergyAccounting, TechnologyNodeScalesEnergyAndArea) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD a = random_matrix(32, 32, 40);
  MatrixD b = random_matrix(32, 32, 41);
  MatrixD c = random_matrix(32, 32, 42);
  auto at_node = [&](arch::TechNode node) {
    KernelRequest req = make_gemm(cfg, 2.0, a.view(), b.view(), c.view());
    req.tech.node = node;
    return kModel.execute(req);
  };
  KernelResult n65 = at_node(arch::TechNode::nm65);
  KernelResult n45 = at_node(arch::TechNode::nm45);
  KernelResult n32 = at_node(arch::TechNode::nm32);
  ASSERT_TRUE(n65.ok && n45.ok && n32.ok);
  // Cycles are node-invariant; energy and area shrink with the node.
  EXPECT_EQ(n65.cycles.value(), n45.cycles.value());
  EXPECT_GT(n65.energy_nj.value(), n45.energy_nj.value());
  EXPECT_GT(n45.energy_nj.value(), n32.energy_nj.value());
  EXPECT_GT(n65.area_mm2.value(), n45.area_mm2.value());
  EXPECT_GT(n45.area_mm2.value(), n32.area_mm2.value());
  // Classical scaling: 65nm dynamic power ~ (65/45)x the 45nm figure.
  EXPECT_NEAR(n65.energy_nj.value() / n45.energy_nj.value(), 65.0 / 45.0, 0.10);
  EXPECT_NEAR(n65.area_mm2.value() / n45.area_mm2.value(), (65.0 / 45.0) * (65.0 / 45.0), 1e-9);
  // The sim backend scales identically.
  KernelRequest req = make_gemm(cfg, 2.0, a.view(), b.view(), c.view());
  req.tech.node = arch::TechNode::nm65;
  KernelResult sim65 = kSim.execute(req);
  req.tech.node = arch::TechNode::nm45;
  KernelResult sim45 = kSim.execute(req);
  ASSERT_TRUE(sim65.ok && sim45.ok);
  EXPECT_GT(sim65.energy_nj.value(), sim45.energy_nj.value());
}

TEST(EnergyAccounting, ClockOverrideRescalesTimeAndPower) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();  // 1 GHz configured
  MatrixD a = random_matrix(32, 32, 50);
  MatrixD b = random_matrix(32, 32, 51);
  MatrixD c = random_matrix(32, 32, 52);
  KernelRequest base = make_gemm(cfg, 2.0, a.view(), b.view(), c.view());
  KernelRequest fast = base;
  fast.tech.clock_ghz = 1.8;
  KernelResult r1 = kModel.execute(base);
  KernelResult r2 = kModel.execute(fast);
  ASSERT_TRUE(r1.ok && r2.ok);
  // Same schedule (cycles are clock-invariant), shorter wall time =>
  // higher throughput, at superlinearly higher power (V-f scaling).
  EXPECT_EQ(r1.cycles.value(), r2.cycles.value());
  EXPECT_NEAR(r2.metrics.gflops() / r1.metrics.gflops(), 1.8, 1e-6);
  EXPECT_GT(r2.avg_power_w.value(), 1.8 * r1.avg_power_w.value());
  // Energy efficiency degrades past the ~1 GHz sweet spot (Fig 3.6).
  EXPECT_LT(r2.metrics.gflops_per_w(), r1.metrics.gflops_per_w());
}

TEST(EnergyAccounting, DriverReportAccumulatesEnergy) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  const index_t n = 24;
  MatrixD a = random_spd(n, 70);
  for (const Executor* ex : {static_cast<const Executor*>(&kSim),
                             static_cast<const Executor*>(&kModel)}) {
    MatrixD work = a;
    blas::DriverReport rep = blas::lap_cholesky(*ex, cfg, 2.0, 8, work.view());
    EXPECT_GT(rep.energy_nj.value(), 0.0) << ex->name();
    EXPECT_GT(rep.avg_power_w.value(), 0.0) << ex->name();
    EXPECT_GT(rep.area_mm2.value(), 0.0) << ex->name();
    // Average power of a kernel stream sits inside the busy+leakage
    // envelope of the core.
    EXPECT_LT(rep.avg_power_w.value(),
              units::to_watts(power::core_busy_mw(cfg, arch::TechNode::nm45) +
                              power::core_leakage_mw(cfg, arch::TechNode::nm45))
                  .value())
        << ex->name();
  }
}

TEST(EnergyModel, EventEnergiesArePositiveAndOrdered) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  power::EventEnergies e =
      power::core_event_energies(cfg, arch::TechNode::nm45, 5.0);
  EXPECT_GT(e.mac_pj.value(), 0.0);
  EXPECT_GT(e.mem_a_pj.value(), 0.0);
  EXPECT_GT(e.mem_b_pj.value(), 0.0);
  EXPECT_GT(e.rf_pj.value(), 0.0);
  EXPECT_GT(e.bus_pj.value(), 0.0);
  EXPECT_GT(e.sfu_pj.value(), 0.0);
  EXPECT_GT(e.dma_word_pj.value(), 0.0);
  // The DP MAC dominates a local-store access; a compare is a fraction of
  // a MAC; an SFU op (many cycles in flight) costs more than one MAC.
  EXPECT_GT(e.mac_pj.value(), e.mem_b_pj.value());
  EXPECT_LT(e.cmp_pj.value(), e.mac_pj.value());
  EXPECT_GT(e.sfu_pj.value(), e.mac_pj.value());
}

}  // namespace
}  // namespace lac::fabric
