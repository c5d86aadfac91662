// Design-space explorer: given a target sustained DP-GEMM throughput and a
// power budget, sweep (cores, local store, on-chip memory, bandwidths)
// through the analytical models and print the Pareto-efficient LAP
// configurations -- the Ch. 4 codesign workflow as a tool.
#include <cstdio>
#include <vector>

#include "arch/presets.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "model/chip_model.hpp"
#include "power/chip_power.hpp"

int main(int argc, char** argv) {
  using namespace lac;
  const double target_gflops = argc > 1 ? std::atof(argv[1]) : 300.0;
  const double power_budget_w = argc > 2 ? std::atof(argv[2]) : 10.0;

  struct Candidate {
    int cores;
    double mem_mb, onchip_bw, offchip_bw;
    power::ChipReport report;
    double utilization;
  };
  const int cores_axis[] = {4, 8, 12, 16};
  const double mem_axis[] = {1.0, 2.0, 4.0, 8.0};
  const double ybw_axis[] = {4.0, 8.0, 16.0, 32.0};
  const double zbw_axis[] = {1.0, 2.0, 4.0};

  std::vector<Candidate> grid;
  for (int s : cores_axis)
    for (double mb : mem_axis)
      for (double y : ybw_axis)
        for (double z : zbw_axis) grid.push_back({s, mb, y, z, {}, 0.0});

  ThreadPool::shared().parallel_for(grid.size(), [&](std::size_t i) {
    Candidate& c = grid[i];
    const auto pt = model::best_chip_utilization(4, c.cores, c.mem_mb, c.onchip_bw,
                                                 c.offchip_bw, 4096);
    c.utilization = pt.utilization;
    arch::ChipConfig chip = arch::lap_s8(c.mem_mb);
    chip.cores = c.cores;
    chip.onchip_bw_words_per_cycle = c.onchip_bw;
    chip.offchip_bw_words_per_cycle = c.offchip_bw;
    c.report = power::chip_report(chip, pt.utilization, c.onchip_bw);
  });

  // Keep candidates meeting the target within budget; sort by GFLOPS/W.
  std::vector<const Candidate*> keep;
  for (const auto& c : grid)
    if (c.report.gflops >= target_gflops &&
        c.report.chip_power_mw / 1000.0 <= power_budget_w)
      keep.push_back(&c);
  std::sort(keep.begin(), keep.end(), [](const Candidate* a, const Candidate* b) {
    return a->report.gflops_per_w() > b->report.gflops_per_w();
  });

  std::printf("target: >= %.0f DP GFLOPS within %.1f W\n", target_gflops,
              power_budget_w);
  Table t("LAP design-space candidates (best GFLOPS/W first)");
  t.set_header({"S", "mem MB", "on-chip w/c", "off-chip w/c", "util", "GFLOPS",
                "W", "mm2", "GFLOPS/W"});
  int shown = 0;
  for (const Candidate* c : keep) {
    t.add_row({fmt_int(c->cores), fmt(c->mem_mb, 1), fmt(c->onchip_bw, 0),
               fmt(c->offchip_bw, 0), fmt_pct(c->utilization),
               fmt(c->report.gflops, 0), fmt(c->report.chip_power_mw / 1000.0, 2),
               fmt(c->report.chip_area_mm2, 0), fmt(c->report.gflops_per_w(), 1)});
    if (++shown == 12) break;
  }
  t.print();
  if (keep.empty())
    std::puts("no configuration meets the target -- raise the budget or "
              "relax the throughput goal.");
  return 0;
}
