// Validation bench, two parts:
//
// 1. §4.3 model validation: apply the analytical memory-hierarchy model to
//    published third-party machines and compare predicted vs measured GEMM
//    utilization (Fermi C2050 and ClearSpeed CSX).
//
// 2. Fabric backend validation: run a kernel sweep through both fabric
//    backends (cycle-exact sim, analytical model) on the shared ThreadPool
//    and emit machine-readable JSON -- one record per (kernel, n, backend)
//    with cycles and utilization -- to stdout and to BENCH_validation.json.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "arch/presets.hpp"
#include "bench_support.hpp"
#include "common/random.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "fabric/model_executor.hpp"
#include "fabric/sim_executor.hpp"
#include "model/validation.hpp"

namespace {

using namespace lac;

void print_validation_table() {
  Table t("§4.3 -- analytical model validation against published machines");
  t.set_header({"machine", "block (ns, mc)", "req. on-chip GB/s", "avail",
                "req. off-chip GB/s", "avail", "predicted util", "measured"});
  for (const auto& v : model::all_validation_cases()) {
    t.add_row({v.name,
               "(" + fmt_int(v.ns) + ", " + fmt_int(v.mc) + ")",
               v.required_onchip_gbs > 0 ? fmt(v.required_onchip_gbs, 0) : "-",
               fmt(v.avail_onchip_gbs, 0),
               v.required_offchip_gbs > 0 ? fmt(v.required_offchip_gbs, 1) : "-",
               fmt(v.avail_offchip_gbs, 0), fmt_pct(v.predicted_utilization),
               fmt_pct(v.measured_utilization)});
  }
  t.print();
}

std::vector<fabric::KernelRequest> sweep_grid(const arch::CoreConfig& cfg) {
  std::vector<fabric::KernelRequest> reqs;
  int seed = 1;
  const double bw = 2.0;
  for (index_t n : {16, 32, 48, 64}) {
    MatrixD a = random_matrix(n, n, seed++);
    MatrixD b = random_matrix(n, n, seed++);
    MatrixD c = random_matrix(n, n, seed++);
    MatrixD l = random_lower_triangular(n, seed++);
    MatrixD spd = random_spd(n, seed++);

    fabric::KernelRequest r = fabric::make_gemm(cfg, bw, a.view(), b.view(), c.view());
    r.tag = "gemm/" + std::to_string(n);
    reqs.push_back(std::move(r));
    r = fabric::make_syrk(cfg, bw, a.view(), c.view());
    r.tag = "syrk/" + std::to_string(n);
    reqs.push_back(std::move(r));
    r = fabric::make_syr2k(cfg, bw, a.view(), b.view(), c.view());
    r.tag = "syr2k/" + std::to_string(n);
    reqs.push_back(std::move(r));
    r = fabric::make_trsm(cfg, bw, l.view(), b.view());
    r.tag = "trsm/" + std::to_string(n);
    reqs.push_back(std::move(r));
    r = fabric::make_cholesky(cfg, bw, spd.view());
    r.tag = "chol/" + std::to_string(n);
    reqs.push_back(std::move(r));

    MatrixD panel = random_matrix(n, cfg.nr, seed++);
    r = fabric::make_lu(cfg, panel.view());
    r.tag = "lu/" + std::to_string(n);
    reqs.push_back(std::move(r));
    r = fabric::make_qr(cfg, panel.view());
    r.tag = "qr/" + std::to_string(n);
    reqs.push_back(std::move(r));

    std::vector<double> x(static_cast<std::size_t>(2 * cfg.nr * n), 0.25);
    r = fabric::make_vnorm(cfg, std::move(x));
    r.tag = "vnorm/" + std::to_string(n);
    reqs.push_back(std::move(r));

    // The tenth kernel: one 64-point FFT frame per 16 of n.
    r = fabric::make_fft(
        cfg, bw, random_cplx_vector(64 * static_cast<std::size_t>(n / 16), seed++));
    r.tag = "fft/" + std::to_string(n);
    reqs.push_back(std::move(r));
  }
  return reqs;
}

/// The sweep on the shared pool; result i is written by index, so the
/// records do not depend on the worker count.
std::vector<fabric::KernelResult> run_sweep(const fabric::Executor& ex,
                                            const arch::CoreConfig& cfg) {
  const std::vector<fabric::KernelRequest> reqs = sweep_grid(cfg);
  std::vector<fabric::KernelResult> results(reqs.size());
  ThreadPool::shared().parallel_for(
      reqs.size(), [&](std::size_t i) { results[i] = ex.execute(reqs[i]); });
  return results;
}

std::string json_record(const fabric::KernelResult& res, index_t n) {
  std::ostringstream os;
  os << "{\"kernel\": \"" << res.tag.substr(0, res.tag.find('/')) << "\""
     << ", \"n\": " << n << ", \"cycles\": " << res.cycles.value()
     << ", \"utilization\": " << res.utilization << ", \"backend\": \""
     << res.backend << "\"}";
  return os.str();
}

}  // namespace

int main() {
  using namespace lac;
  print_validation_table();

  const arch::CoreConfig cfg = arch::lac_4x4_dp();
  const fabric::SimExecutor sim;
  const fabric::ModelExecutor model;

  std::vector<fabric::KernelResult> sim_results = run_sweep(sim, cfg);
  std::vector<fabric::KernelResult> model_results = run_sweep(model, cfg);

  std::ostringstream json;
  json << "{\n  \"records\": [\n";
  bool first = true;
  for (const auto* results : {&sim_results, &model_results}) {
    for (const fabric::KernelResult& r : *results) {
      const index_t n =
          static_cast<index_t>(std::stol(r.tag.substr(r.tag.find('/') + 1)));
      if (!first) json << ",\n";
      first = false;
      json << "    " << json_record(r, n);
    }
  }
  json << "\n  ],\n  \"meta\": "
       << lac::bench::meta_json(ThreadPool::shared().size()) << "\n}\n";

  std::printf("\n%s", json.str().c_str());
  std::ofstream out("BENCH_validation.json");
  out << json.str();
  std::printf("wrote BENCH_validation.json\n");
  return 0;
}
