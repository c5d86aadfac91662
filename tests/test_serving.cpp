// The persistent serving layer: ThreadPool scheduling and exception
// semantics, AsyncExecutor futures under mixed-kernel stress on both
// backends, determinism across pool widths, CostCache hit behavior, and
// the zero-copy request path.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <complex>
#include <future>
#include <memory>
#include <stdexcept>
#include <vector>

#include "arch/presets.hpp"
#include "common/random.hpp"
#include "common/thread_pool.hpp"
#include "fabric/model_executor.hpp"
#include "fabric/serving.hpp"
#include "fabric/sim_executor.hpp"
#include "obs/metrics.hpp"
#include "test_support.hpp"

namespace lac::fabric {
namespace {

const SimExecutor kSim;
const ModelExecutor kModel;

/// Execute every request on the shared pool, result i written by index.
std::vector<KernelResult> execute_all(const Executor& ex,
                                      const std::vector<KernelRequest>& reqs,
                                      unsigned max_workers) {
  std::vector<KernelResult> out(reqs.size());
  ThreadPool::shared().parallel_for(
      reqs.size(), [&](std::size_t i) { out[i] = ex.execute(reqs[i]); },
      max_workers);
  return out;
}

/// Mixed-kernel workload with deliberately repeated shapes (every repeat
/// shares the same operand payloads -- the zero-copy serving pattern).
std::vector<KernelRequest> serving_workload(int repeats) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  std::vector<KernelRequest> reqs;
  int seed = 1;
  for (index_t n : {16, 24}) {
    auto a = std::make_shared<const MatrixD>(random_matrix(n, n, seed++));
    auto b = std::make_shared<const MatrixD>(random_matrix(n, n, seed++));
    auto c = std::make_shared<const MatrixD>(random_matrix(n, n, seed++));
    auto l = std::make_shared<const MatrixD>(random_lower_triangular(n, seed++));
    auto spd = std::make_shared<const MatrixD>(random_spd(n, seed++));
    auto panel = std::make_shared<const MatrixD>(random_matrix(n, cfg.nr, seed++));
    const SharedCplxVector frames(
        random_cplx_vector(64 * static_cast<std::size_t>(n / 8), seed++));
    for (int r = 0; r < repeats; ++r) {
      reqs.push_back(make_gemm(cfg, 2.0, a, b, c));
      reqs.push_back(make_syrk(cfg, 2.0, a, c));
      reqs.push_back(make_trsm(cfg, 2.0, l, b));
      reqs.push_back(make_cholesky(cfg, 2.0, spd));
      reqs.push_back(make_lu(cfg, panel));
      reqs.push_back(make_qr(cfg, panel));
      reqs.push_back(make_fft(cfg, 2.0, frames));
    }
  }
  return reqs;
}

TEST(ThreadPool, SubmitReturnsFutureValues) {
  ThreadPool pool(3);
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 64; ++i)
    futs.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 64; ++i) EXPECT_EQ(futs[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  std::future<int> fut =
      pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
  // The pool survives a throwing job.
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  // Empty and single-item ranges, and worker caps above both n and the
  // pool size (4), are clamped rather than oversubscribed.
  ThreadPool pool(4);
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                        std::size_t{1000}}) {
    for (unsigned cap : {0u, 1u, 2u, 7u, 64u}) {
      std::vector<std::atomic<int>> hits(n);
      pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); }, cap);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i << " n " << n << " cap " << cap;
    }
  }
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  ThreadPool pool(4);
  for (unsigned cap : {0u, 1u, 4u}) {
    try {
      pool.parallel_for(
          100,
          [](std::size_t i) {
            if (i == 41) throw std::invalid_argument("bad index 41");
          },
          cap);
      ADD_FAILURE() << "expected an exception, cap " << cap;
    } catch (const std::invalid_argument& e) {
      // Helpers the queue reaches late still hold the shared state that
      // owns the exception. Let them finish first: the exception's
      // reference count lives in the uninstrumented C++ runtime, so TSan
      // cannot see that it orders their release after this read.
      pool.drain();
      EXPECT_STREQ(e.what(), "bad index 41") << "cap " << cap;
    }
  }
  // Reusable afterwards.
  std::atomic<int> n{0};
  pool.parallel_for(50, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 50);
}

TEST(ThreadPool, ParallelForProgressesWhenWorkersAreBusy) {
  // Occupy the whole pool with blocked jobs: the caller participates in
  // parallel_for, so it completes even with zero pool threads available.
  ThreadPool pool(2);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::vector<std::future<void>> blockers;
  for (int i = 0; i < 2; ++i)
    blockers.push_back(pool.submit([gate] { gate.wait(); }));
  std::atomic<int> n{0};
  pool.parallel_for(64, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 64);
  release.set_value();
  for (auto& b : blockers) b.get();
}

TEST(ZeroCopyRequest, SharedPayloadIsNotDuplicated) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  auto a = std::make_shared<const MatrixD>(random_matrix(16, 16, 70));
  auto b = std::make_shared<const MatrixD>(random_matrix(16, 16, 71));
  auto c = std::make_shared<const MatrixD>(random_matrix(16, 16, 72));
  KernelRequest req = make_gemm(cfg, 2.0, a, b, c);
  // The request references the caller's payloads...
  EXPECT_EQ(req.a.payload().get(), a.get());
  EXPECT_EQ(req.b.payload().get(), b.get());
  // ...and copying the request shares rather than duplicates them.
  KernelRequest copy = req;
  EXPECT_EQ(copy.a.payload().get(), a.get());
  EXPECT_EQ(a.use_count(), 3);  // caller + request + copy

  // Execution never mutates the shared operands.
  MatrixD c_before = *c;
  KernelResult sim = kSim.execute(req);
  KernelResult model = kModel.execute(req);
  ASSERT_TRUE(sim.ok && model.ok);
  EXPECT_TRUE(*c == c_before);
  // Both backends produced the same update from the shared payloads.
  for (index_t j = 0; j < 16; ++j)
    for (index_t i = 0; i < 16; ++i)
      EXPECT_NEAR(sim.out(i, j), model.out(i, j), 1e-9);
}

TEST(AsyncExecutor, StressMixedKernelsBothBackends) {
  // 350 requests at full scale; LAC_TEST_SCALE shrinks the repeat count
  // for the sanitizer lanes (min 4 repeats keeps every kernel contended).
  const int repeats = test::scaled(25, 4);
  std::vector<KernelRequest> reqs = serving_workload(repeats);
  ASSERT_EQ(reqs.size(), 14u * static_cast<std::size_t>(repeats));
  for (const Executor* ex : {static_cast<const Executor*>(&kSim),
                             static_cast<const Executor*>(&kModel)}) {
    // Serial reference results.
    std::vector<KernelResult> expect = execute_all(*ex, reqs, 1);
    AsyncExecutor async(*ex);
    std::vector<std::future<KernelResult>> futs = async.submit_all(reqs);
    ASSERT_EQ(futs.size(), reqs.size());
    for (std::size_t i = 0; i < futs.size(); ++i) {
      KernelResult got = futs[i].get();
      ASSERT_TRUE(got.ok) << ex->name() << " request " << i << ": " << got.error;
      EXPECT_EQ(got.cycles.value(), expect[i].cycles.value()) << ex->name() << " request " << i;
      EXPECT_TRUE(got.out == expect[i].out) << ex->name() << " request " << i;
    }
  }
}

TEST(AsyncExecutor, DeterministicAcrossPoolWidths) {
  std::vector<KernelRequest> reqs = serving_workload(4);
  ThreadPool one(1);
  AsyncExecutor base(kSim, &one);
  std::vector<std::future<KernelResult>> base_futs = base.submit_all(reqs);
  std::vector<KernelResult> expect;
  for (auto& f : base_futs) expect.push_back(f.get());
  for (unsigned width : {2u, 5u}) {
    ThreadPool pool(width);
    AsyncExecutor async(kSim, &pool);
    std::vector<std::future<KernelResult>> futs = async.submit_all(reqs);
    for (std::size_t i = 0; i < futs.size(); ++i) {
      KernelResult got = futs[i].get();
      EXPECT_EQ(got.cycles.value(), expect[i].cycles.value()) << "width " << width;
      EXPECT_TRUE(got.out == expect[i].out) << "width " << width;  // byte-identical
    }
  }
}

TEST(AsyncExecutor, CostHintedDispatchMatchesUnhintedResults) {
  // Size-aware dispatch must steer placement only: a hinted executor's
  // results are byte-identical to the un-hinted baseline, and the hint
  // source is the CostCache (repeated-shape traffic resolves to memo hits,
  // never a second simulation).
  std::vector<KernelRequest> reqs = serving_workload(3);
  ThreadPool plain_pool(4);
  const AsyncExecutor plain(kSim, &plain_pool);
  std::vector<std::future<KernelResult>> base_futs = plain.submit_all(reqs);
  std::vector<KernelResult> expect;
  for (auto& f : base_futs) expect.push_back(f.get());

  CostCache hints;
  ThreadPool hinted_pool(4);
  const AsyncExecutor hinted(kSim, &hinted_pool, &hints);
  std::vector<std::future<KernelResult>> futs = hinted.submit_all(reqs);
  for (std::size_t i = 0; i < futs.size(); ++i) {
    KernelResult got = futs[i].get();
    EXPECT_EQ(got.cycles.value(), expect[i].cycles.value()) << "req " << i;
    EXPECT_TRUE(got.out == expect[i].out) << "req " << i;
  }
  // Every submission consulted the cache; the repeated shapes hit.
  EXPECT_EQ(hints.hits() + hints.misses(), reqs.size());
  EXPECT_GT(hints.hits(), 0u);
}

TEST(AsyncExecutor, CompletionHookRunsPerRequest) {
  std::vector<KernelRequest> reqs = serving_workload(2);
  std::atomic<int> completed{0};
  AsyncExecutor async(kModel);
  std::vector<std::future<KernelResult>> futs;
  for (KernelRequest& req : reqs)
    futs.push_back(async.submit(
        std::move(req), [&](const KernelResult& r) {
          if (r.ok) completed.fetch_add(1);
        }));
  for (auto& f : futs) EXPECT_TRUE(f.get().ok);
  EXPECT_EQ(completed.load(), static_cast<int>(futs.size()));
}

TEST(AsyncExecutor, ExceptionsPropagateThroughFutures) {
  struct ThrowingExecutor final : Executor {
    const char* name() const override { return "throwing"; }
    KernelResult execute(const KernelRequest&) const override {
      throw std::runtime_error("backend exploded");
    }
  } throwing;
  AsyncExecutor async(throwing);
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD a = random_matrix(16, 16, 80);
  std::future<KernelResult> fut =
      async.submit(make_cholesky(cfg, 2.0, a.view()));
  EXPECT_THROW(fut.get(), std::runtime_error);
  // The shared pool survives; well-behaved backends keep serving.
  AsyncExecutor ok(kModel);
  MatrixD spd = random_spd(16, 81);
  EXPECT_TRUE(ok.submit(make_cholesky(cfg, 2.0, spd.view())).get().ok);
}

TEST(CostCache, RepeatedShapesHitAndMatchUncached) {
  CostCache cache;
  ModelExecutor cached(&cache);
  std::vector<KernelRequest> reqs = serving_workload(test::scaled(10, 3));
  const std::size_t unique_shapes = serving_workload(1).size();

  std::vector<KernelResult> got = execute_all(cached, reqs, 4);
  std::vector<KernelResult> expect = execute_all(kModel, reqs, 1);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i].ok);
    EXPECT_EQ(got[i].cycles.value(), expect[i].cycles.value()) << "request " << i;
    EXPECT_EQ(got[i].utilization, expect[i].utilization) << "request " << i;
    // The memoized energy path must be bit-identical to re-estimation.
    EXPECT_EQ(got[i].energy_nj.value(), expect[i].energy_nj.value()) << "request " << i;
    EXPECT_EQ(got[i].avg_power_w.value(), expect[i].avg_power_w.value()) << "request " << i;
    EXPECT_EQ(got[i].area_mm2.value(), expect[i].area_mm2.value()) << "request " << i;
  }
  // Exactly one miss per distinct shape -- threads racing on a cold key
  // resolve to one inserted entry (the miss) and hits for the losers.
  EXPECT_EQ(cache.hits() + cache.misses(), reqs.size());
  EXPECT_EQ(cache.misses(), unique_shapes);
  EXPECT_EQ(cache.size(), unique_shapes);
  EXPECT_EQ(cache.hits(), reqs.size() - unique_shapes);
  EXPECT_GT(cache.hit_rate(), 0.5);

  const std::uint64_t hits_before = cache.hits();
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_LT(cache.hits(), hits_before);
}

TEST(CostCache, RegistryCountersAgreeWithInstanceCounts) {
  // The process-global `lac.serving.cache.*` registry counters (what
  // bench_serving's hit-rate section and the telemetry JSON report) must
  // move in lockstep with the per-instance hits()/misses() accounting --
  // a drift between the two would make the telemetry numbers fiction.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  const std::uint64_t hits_before = reg.counter("lac.serving.cache.hits").value();
  const std::uint64_t misses_before =
      reg.counter("lac.serving.cache.misses").value();
  const std::uint64_t inserts_before =
      reg.counter("lac.serving.cache.inserts").value();

  CostCache cache;
  ModelExecutor cached(&cache);
  std::vector<KernelRequest> reqs = serving_workload(test::scaled(6, 2));
  for (KernelResult& r : execute_all(cached, reqs, 4))
    ASSERT_TRUE(r.ok);

  const std::uint64_t hits_delta =
      reg.counter("lac.serving.cache.hits").value() - hits_before;
  const std::uint64_t misses_delta =
      reg.counter("lac.serving.cache.misses").value() - misses_before;
  const std::uint64_t inserts_delta =
      reg.counter("lac.serving.cache.inserts").value() - inserts_before;
  EXPECT_EQ(hits_delta, cache.hits());
  EXPECT_EQ(misses_delta, cache.misses());
  EXPECT_EQ(inserts_delta, cache.size());
  EXPECT_EQ(hits_delta + misses_delta, reqs.size());
}

TEST(CostCache, ColdKeyRaceCountsOneMissPerEntry) {
  // Many threads racing on the same cold key must resolve to exactly one
  // miss (the inserting thread) -- the pre-fix behavior counted one miss
  // per racing thread for a single inserted entry, skewing hit_rate().
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  auto a = std::make_shared<const MatrixD>(random_matrix(16, 16, 200));
  auto b = std::make_shared<const MatrixD>(random_matrix(16, 16, 201));
  auto c = std::make_shared<const MatrixD>(random_matrix(16, 16, 202));
  for (int round = 0; round < test::scaled(8, 2); ++round) {
    CostCache cache;
    constexpr unsigned kThreads = 8;
    ThreadPool pool(kThreads);
    std::vector<std::future<CostCache::Estimate>> futs;
    for (unsigned t = 0; t < kThreads; ++t)
      futs.push_back(pool.submit(
          [&] { return cache.estimate(make_gemm(cfg, 2.0, a, b, c)); }));
    CostCache::Estimate first = futs[0].get();
    for (std::size_t t = 1; t < futs.size(); ++t) {
      CostCache::Estimate e = futs[t].get();
      EXPECT_EQ(e.cycles.value(), first.cycles.value());
      EXPECT_EQ(e.energy_nj.value(), first.energy_nj.value());
    }
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.misses(), 1u) << "round " << round;
    EXPECT_EQ(cache.hits(), kThreads - 1u) << "round " << round;
  }
}

TEST(CostCache, SignatureKeysEveryEnergyRelevantField) {
  // Cycles ignore clock, precision, local-store sizing and the technology
  // context -- the energy model reads all of them, so the memo key must
  // separate each (the cycle-only cache would have aliased these points).
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD a = random_matrix(16, 16, 210), b = random_matrix(16, 16, 211),
          c = random_matrix(16, 16, 212);
  const KernelRequest base = make_gemm(cfg, 2.0, a.view(), b.view(), c.view());
  const std::string sig = CostCache::signature(base);

  KernelRequest other_node = base;
  other_node.tech.node = arch::TechNode::nm32;
  EXPECT_NE(CostCache::signature(other_node), sig);

  KernelRequest other_clock = base;
  other_clock.tech.clock_ghz = 1.4;
  EXPECT_NE(CostCache::signature(other_clock), sig);

  arch::CoreConfig sp = arch::lac_4x4_sp();
  EXPECT_NE(
      CostCache::signature(make_gemm(sp, 2.0, a.view(), b.view(), c.view())),
      sig);

  arch::CoreConfig small_store = cfg;
  small_store.pe.mem_a_kbytes = 8.0;
  EXPECT_NE(CostCache::signature(
                make_gemm(small_store, 2.0, a.view(), b.view(), c.view())),
            sig);

  // And a cached executor serves the distinct points distinct energies.
  CostCache cache;
  ModelExecutor cached(&cache);
  KernelResult at45 = cached.execute(base);
  KernelResult at32 = cached.execute(other_node);
  ASSERT_TRUE(at45.ok && at32.ok);
  EXPECT_EQ(at45.cycles.value(), at32.cycles.value());
  EXPECT_GT(at45.energy_nj.value(), at32.energy_nj.value());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(CostCache, SignatureSeparatesExtensionBools) {
  // The two MAC-extension flags are delimited fields, not a concatenated
  // bit blob: flipping either one alone must change the key.
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD panel = random_matrix(16, 4, 220);
  const std::string base = CostCache::signature(make_lu(cfg, panel.view()));
  arch::CoreConfig with_cmp = cfg;
  with_cmp.pe.extensions.comparator = true;
  arch::CoreConfig with_exp = cfg;
  with_exp.pe.extensions.extended_exponent = true;
  const std::string sig_cmp = CostCache::signature(make_lu(with_cmp, panel.view()));
  const std::string sig_exp = CostCache::signature(make_lu(with_exp, panel.view()));
  EXPECT_NE(sig_cmp, base);
  EXPECT_NE(sig_exp, base);
  EXPECT_NE(sig_cmp, sig_exp);
  // Explicit delimiter between the flags (regression for the unseparated
  // "<<bool<<bool" streaming): flipping comparator on changes exactly the
  // field before the delimiter, so the flags parse as ",1,0" not ",10".
  EXPECT_NE(sig_cmp.find(",1,0|"), std::string::npos);
}

TEST(CostCache, SignatureSeparatesShapeAndConfig) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD a16 = random_matrix(16, 16, 90), b16 = random_matrix(16, 16, 91),
          c16 = random_matrix(16, 16, 92);
  MatrixD a32 = random_matrix(32, 32, 93), b32 = random_matrix(32, 32, 94),
          c32 = random_matrix(32, 32, 95);
  KernelRequest r1 = make_gemm(cfg, 2.0, a16.view(), b16.view(), c16.view());
  KernelRequest same_shape =
      make_gemm(cfg, 2.0, b16.view(), a16.view(), c16.view());  // values differ
  KernelRequest other_n = make_gemm(cfg, 2.0, a32.view(), b32.view(), c32.view());
  KernelRequest other_bw = make_gemm(cfg, 4.0, a16.view(), b16.view(), c16.view());
  KernelRequest other_kind = make_syrk(cfg, 2.0, a16.view(), c16.view());
  EXPECT_EQ(CostCache::signature(r1), CostCache::signature(same_shape));
  EXPECT_NE(CostCache::signature(r1), CostCache::signature(other_n));
  EXPECT_NE(CostCache::signature(r1), CostCache::signature(other_bw));
  EXPECT_NE(CostCache::signature(r1), CostCache::signature(other_kind));

  arch::CoreConfig wider = cfg;
  wider.pe.pipeline_stages += 2;
  KernelRequest other_core =
      make_gemm(wider, 2.0, a16.view(), b16.view(), c16.view());
  EXPECT_NE(CostCache::signature(r1), CostCache::signature(other_core));

  // Bandwidths differing only past the sixth significant digit (a
  // fine-grained sweep step) must still key separately.
  KernelRequest bw_lo = make_gemm(cfg, 1024.001, a16.view(), b16.view(), c16.view());
  KernelRequest bw_hi = make_gemm(cfg, 1024.004, a16.view(), b16.view(), c16.view());
  EXPECT_NE(CostCache::signature(bw_lo), CostCache::signature(bw_hi));
}

TEST(CostCache, SignatureKeysFftFieldsWithoutCollisions) {
  // Regression for the tenth kernel: the FFT-specific fields (transform
  // size, radix, variant, frame count) are part of the key, each behind an
  // explicit delimiter, so no two distinct FFT operating points -- and no
  // ambiguous field concatenation -- can share an entry.
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  const std::vector<std::complex<double>> one = random_cplx_vector(64, 300);
  const std::vector<std::complex<double>> two = random_cplx_vector(128, 301);
  const KernelRequest base = make_fft(cfg, 2.0, one);
  const std::string sig = CostCache::signature(base);

  // Same payload size, different variant.
  std::vector<std::complex<double>> grid = random_cplx_vector(4096, 302);
  KernelRequest batched_grid = make_fft(cfg, 2.0, grid);
  KernelRequest four_step = make_fft(cfg, 2.0, grid, FftVariant::FourStep);
  EXPECT_NE(CostCache::signature(batched_grid), CostCache::signature(four_step));

  // Frame count is keyed (the cycle model scales with it).
  EXPECT_NE(CostCache::signature(make_fft(cfg, 2.0, two)), sig);

  // Size/radix are keyed individually: a hypothetical 640-point radix-4
  // and 64-point radix-40 request must not concatenate onto one key
  // ("640|4" vs "64|04" style collisions -- the explicit-delimiter
  // convention of PR 3).
  KernelRequest n640 = base;
  n640.fft_n = 640;
  KernelRequest r40 = base;
  r40.fft_n = 64;
  r40.fft_radix = 40;
  EXPECT_NE(CostCache::signature(n640), CostCache::signature(r40));
  EXPECT_NE(CostCache::signature(n640), sig);
  EXPECT_NE(CostCache::signature(r40), sig);

  // Same signature fields, different payload values: one entry.
  const std::vector<std::complex<double>> other_vals = random_cplx_vector(64, 303);
  EXPECT_EQ(CostCache::signature(make_fft(cfg, 2.0, other_vals)), sig);

  // And a cached model executor serves FFT traffic with one miss per
  // distinct operating point.
  CostCache cache;
  ModelExecutor cached(&cache);
  for (int repeat = 0; repeat < 4; ++repeat) {
    ASSERT_TRUE(cached.execute(base).ok);
    ASSERT_TRUE(cached.execute(make_fft(cfg, 2.0, two)).ok);
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 6u);
}

TEST(AsyncExecutor, FftByteIdenticalAcrossPoolWidths) {
  // The tenth kernel obeys the serving determinism contract: the same FFT
  // workload through AsyncExecutors of width 1, 2 and 4 produces
  // bit-identical spectra and identical accounting on both backends.
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  const SimExecutor sim;
  const ModelExecutor model;
  std::vector<KernelRequest> reqs;
  for (std::size_t frames : {1u, 2u, 4u}) {
    const SharedCplxVector payload(random_cplx_vector(64 * frames, 400 + frames));
    for (double bw : {1.0, 4.0})
      for (int repeat = 0; repeat < 3; ++repeat)
        reqs.push_back(make_fft(cfg, bw, payload));
  }
  for (const Executor* ex : {static_cast<const Executor*>(&sim),
                             static_cast<const Executor*>(&model)}) {
    ThreadPool serial(1);
    std::vector<KernelResult> expect;
    for (auto& f : AsyncExecutor(*ex, &serial).submit_all(reqs))
      expect.push_back(f.get());
    for (unsigned width : {2u, 4u}) {
      ThreadPool pool(width);
      std::vector<std::future<KernelResult>> futs =
          AsyncExecutor(*ex, &pool).submit_all(reqs);
      for (std::size_t i = 0; i < expect.size(); ++i) {
        KernelResult got = futs[i].get();
        ASSERT_TRUE(got.ok) << ex->name();
        EXPECT_EQ(got.cycles.value(), expect[i].cycles.value()) << ex->name() << " req " << i;
        EXPECT_EQ(got.energy_nj.value(), expect[i].energy_nj.value()) << ex->name();
        ASSERT_EQ(got.spectrum.size(), expect[i].spectrum.size());
        // Byte-identical: exact complex equality, no tolerance.
        for (std::size_t g = 0; g < got.spectrum.size(); ++g)
          ASSERT_EQ(got.spectrum[g], expect[i].spectrum[g])
              << ex->name() << " req " << i << " point " << g;
      }
    }
  }
}

}  // namespace
}  // namespace lac::fabric
