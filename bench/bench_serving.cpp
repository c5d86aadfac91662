// Serving capacity bench: the sim pool's closed-loop throughput over the
// same run's serial floor.
//
// The workload is a 12-shape mix (n 16/32 x gemm, syrk, trsm, chol, lu, qr)
// on shared payloads. "serial" executes the mix back to back on the calling
// thread; "pool" submits it through AsyncExecutor(sim, pool, &cache) with a
// bounded in-flight window of 4 requests per worker. The pool has
// hardware_concurrency - 1 workers (the client thread keeps a core). The two
// sides alternate in short slices, so a host-speed swing of a few seconds
// hits both alike. Emits per-side requests/s and p50/p99 latency, the CPU
// count and the pool size to stdout and BENCH_serving.json;
// `lint.py --serving-gate` checks the pool/serial ratio of that run.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/presets.hpp"
#include "bench_support.hpp"
#include "common/random.hpp"
#include "common/thread_pool.hpp"
#include "fabric/serving.hpp"
#include "fabric/sim_executor.hpp"

namespace {

using namespace lac;
using Clock = std::chrono::steady_clock;

/// Seconds each side runs, split into kRounds alternating slices.
constexpr double kSideSeconds = 3.0;
constexpr int kRounds = 6;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// The 12-shape serving mix; operands are shared payloads, so queueing a
/// request copies no matrices.
std::vector<fabric::KernelRequest> serving_mix(const arch::CoreConfig& cfg) {
  std::vector<fabric::KernelRequest> reqs;
  int seed = 1;
  const double bw = 2.0;
  for (index_t n : {16, 32}) {
    auto a = std::make_shared<const MatrixD>(random_matrix(n, n, seed++));
    auto b = std::make_shared<const MatrixD>(random_matrix(n, n, seed++));
    auto c = std::make_shared<const MatrixD>(random_matrix(n, n, seed++));
    auto l = std::make_shared<const MatrixD>(random_lower_triangular(n, seed++));
    auto spd = std::make_shared<const MatrixD>(random_spd(n, seed++));
    auto panel = std::make_shared<const MatrixD>(random_matrix(n, cfg.nr, seed++));
    reqs.push_back(fabric::make_gemm(cfg, bw, a, b, c));
    reqs.push_back(fabric::make_syrk(cfg, bw, a, c));
    reqs.push_back(fabric::make_trsm(cfg, bw, l, b));
    reqs.push_back(fabric::make_cholesky(cfg, bw, spd));
    reqs.push_back(fabric::make_lu(cfg, panel));
    reqs.push_back(fabric::make_qr(cfg, panel));
  }
  return reqs;
}

/// One side's accumulated slices: request latencies and busy wall time.
struct Side {
  std::vector<double> lat_ms;
  double wall_ms = 0.0;
  int failures = 0;
};

/// Execute the mix back to back on this thread for `seconds`.
void run_serial(const fabric::Executor& ex,
                const std::vector<fabric::KernelRequest>& mix, double seconds,
                Side& side) {
  const auto t0 = Clock::now();
  for (std::size_t i = 0; ms_between(t0, Clock::now()) < seconds * 1e3;
       i = (i + 1) % mix.size()) {
    const auto start = Clock::now();
    if (!ex.execute(mix[i]).ok) ++side.failures;
    side.lat_ms.push_back(ms_between(start, Clock::now()));
  }
  side.wall_ms += ms_between(t0, Clock::now());
}

/// Submit the mix round-robin for `seconds` with at most `window` requests
/// in flight; latency is completion minus submission. When the window
/// fills, half of it retires before the next submit, so the submitter
/// sleeps once per burst rather than once per request.
void run_pool(const fabric::AsyncExecutor& async,
              const std::vector<fabric::KernelRequest>& mix, double seconds,
              std::size_t window, Side& side) {
  struct Slot {
    double ms = 0.0;
    bool ok = false;
  };
  std::deque<Slot> slots;  // stable addresses under push_back
  std::deque<std::future<fabric::KernelResult>> inflight;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; ms_between(t0, Clock::now()) < seconds * 1e3;
       i = (i + 1) % mix.size()) {
    if (inflight.size() >= window) {
      while (inflight.size() > window / 2) {
        inflight.front().get();
        inflight.pop_front();
      }
    }
    const auto submitted = Clock::now();
    Slot* slot = &slots.emplace_back();
    inflight.push_back(
        async.submit(mix[i], [slot, submitted](const fabric::KernelResult& r) {
          slot->ms = ms_between(submitted, Clock::now());
          slot->ok = r.ok;
        }));
  }
  while (!inflight.empty()) {
    inflight.front().get();
    inflight.pop_front();
  }
  side.wall_ms += ms_between(t0, Clock::now());
  for (const Slot& s : slots) {
    side.lat_ms.push_back(s.ms);
    if (!s.ok) ++side.failures;
  }
}

std::string json_mode(const char* mode, Side side) {
  std::sort(side.lat_ms.begin(), side.lat_ms.end());
  const std::size_t n = side.lat_ms.size();
  const double p50 = n ? side.lat_ms[n / 2] : 0.0;
  const double p99 = n ? side.lat_ms[std::min(n - 1, n * 99 / 100)] : 0.0;
  std::ostringstream os;
  os << "    {\"backend\": \"sim\", \"mode\": \"" << mode
     << "\", \"requests\": " << n << ", \"wall_ms\": " << side.wall_ms
     << ", \"requests_per_s\": "
     << (side.wall_ms > 0 ? static_cast<double>(n) / (side.wall_ms / 1e3) : 0.0)
     << ", \"p50_ms\": " << p50 << ", \"p99_ms\": " << p99 << "}";
  return os.str();
}

}  // namespace

int main() {
  const unsigned cpus = std::thread::hardware_concurrency();
  ThreadPool pool(cpus > 1 ? cpus - 1 : 1);
  const std::size_t window = 4 * static_cast<std::size_t>(pool.size());
  const std::vector<fabric::KernelRequest> mix = serving_mix(arch::lac_4x4_dp());
  std::printf("serving capacity: %zu-shape sim mix, %u CPUs, %u pool workers, "
              "%.1f s per side\n",
              mix.size(), cpus, pool.size(), kSideSeconds);

  const fabric::SimExecutor sim;
  fabric::CostCache cache;
  // The CostCache cycle estimate is the pool's placement hint, so a qr/16
  // is told from a gemm/32 up front.
  const fabric::AsyncExecutor async(sim, &pool, &cache);
  Side serial, pooled;
  for (int r = 0; r < kRounds; ++r) {
    run_serial(sim, mix, kSideSeconds / kRounds, serial);
    run_pool(async, mix, kSideSeconds / kRounds, window, pooled);
  }
  const int failures = serial.failures + pooled.failures;

  std::ostringstream json;
  json << "{\n  \"cpus\": " << cpus << ",\n  \"pool_workers\": " << pool.size()
       << ",\n  \"submit_window\": " << window << ",\n  \"side_s\": " << kSideSeconds
       << ",\n  \"modes\": [\n"
       << json_mode("serial", std::move(serial)) << ",\n"
       << json_mode("pool", std::move(pooled)) << "\n  ],\n  \"failures\": " << failures
       << ",\n  \"meta\": " << lac::bench::meta_json(pool.size())
       << ",\n  \"telemetry\": " << lac::bench::telemetry_json() << "\n}\n";

  std::printf("\n%s", json.str().c_str());
  std::ofstream out("BENCH_serving.json");
  out << json.str();
  std::printf("wrote BENCH_serving.json\n");
  return failures == 0 ? 0 : 1;
}
