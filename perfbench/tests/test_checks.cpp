// Self-test of the benchmark's own checks: a result whose output or
// simulated-cost fingerprint has been perturbed must be counted as a
// failed operation, and the span attribution must split an operation's
// time exactly. Exits non-zero on the first broken expectation.
#include <cmath>
#include <cstdio>
#include <string>

#include "arch/presets.hpp"
#include "fabric/kernel_registry.hpp"
#include "fabric/sim_executor.hpp"
#include "harness.hpp"

namespace {

int g_failures = 0;

void expect(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

using lacb::Checker;
using lacb::KernelResult;

KernelResult sample(lac::fabric::KernelKind kind) {
  const auto& traits = lac::fabric::kernel_traits(kind);
  return lac::fabric::SimExecutor().execute(
      traits.sized_request(lac::arch::lac_4x4_dp(), 2.0, 16, 42));
}

void digest_checks() {
  const KernelResult good = sample(lac::fabric::KernelKind::Gemm);
  const std::uint64_t fp = lacb::result_digest(good);

  Checker c;
  expect(c.check(good, fp, "good"), "an unchanged result passes");

  KernelResult out = good;
  out.out(0, 0) = std::nextafter(out.out(0, 0), 1e300);
  expect(!c.check(out, fp, "output"), "a one-ulp output change fails");

  KernelResult cycles = good;
  cycles.cycles = cycles.cycles + lac::units::Cycles(1.0);
  expect(!c.check(cycles, fp, "cycles"), "a changed cycle count fails");

  KernelResult stats = good;
  stats.stats.row_bus_xfers += 1;
  expect(!c.check(stats, fp, "stats"), "a changed sim::Stats counter fails");

  KernelResult energy = good;
  energy.energy_nj = lac::units::Nanojoules(std::nextafter(energy.energy_nj.value(), 0.0));
  expect(!c.check(energy, fp, "energy"), "a changed energy fails");

  KernelResult failed = good;
  failed.ok = false;
  expect(!c.check(failed, fp, "ok=false"), "an in-band ok=false fails");

  expect(c.attempted() == 6, "every check counts as attempted");
  expect(c.failed() == 5, "every perturbed result counts as failed");
  expect(!c.reasons().empty(), "failure reasons are kept");

  // The numerics check: sim against a perturbed reference.
  KernelResult ref = good;
  expect(lacb::compare_numerics(good, ref).empty(), "identical numerics match");
  ref.out(1, 1) *= 1.0 + 1e-6;
  expect(!lacb::compare_numerics(good, ref).empty(), "perturbed numerics differ");

  const KernelResult lu = sample(lac::fabric::KernelKind::Lu);
  KernelResult lu_ref = lu;
  if (!lu_ref.pivots.empty()) lu_ref.pivots[0] += 1;
  expect(!lu_ref.pivots.empty() && !lacb::compare_numerics(lu, lu_ref).empty(),
         "perturbed pivots differ");
}

void attribution_checks() {
  lacb::SpanRecorder rec;
  using lacb::SpanKind;
  // Root [0, 100): two parallel children A [10, 50) and B [40, 90); A has
  // a child V [20, 30).
  rec.add_with_id(0, 7, SpanKind::Op, 1000, 1100);
  const std::uint32_t a = rec.add(7, SpanKind::SimRun, 1010, 1050);
  rec.add(7, SpanKind::FabricValidate, 1020, 1030, a);
  rec.add(7, SpanKind::PowerEnergy, 1040, 1090);
  rec.attribute();
  auto self = [&](SpanKind k) { return rec.totals(k).self_ns; };
  expect(rec.ops() == 1 && rec.root_ns() == 100.0, "one op of 100 ns");
  // A: [10,20) + [30,40) alone, [40,50) shared with B -> 20 + 5.
  expect(self(SpanKind::SimRun) == 25.0, "parent self time excludes its child");
  expect(self(SpanKind::FabricValidate) == 10.0, "child self time");
  expect(self(SpanKind::PowerEnergy) == 45.0, "parallel spans split evenly");
  expect(self(SpanKind::Op) == 20.0, "uncovered time is unattributed");
  double total = 0.0;
  for (int k = 0; k < static_cast<int>(SpanKind::kCount); ++k)
    total += rec.totals(static_cast<SpanKind>(k)).self_ns;
  expect(total == rec.root_ns(), "self times sum to the end-to-end time");
}

}  // namespace

int main() {
  digest_checks();
  attribution_checks();
  if (g_failures == 0) std::printf("perfbench self-test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
