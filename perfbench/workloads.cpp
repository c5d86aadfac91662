#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "arch/presets.hpp"
#include "common/random.hpp"
#include "common/thread_pool.hpp"
#include "fabric/model_executor.hpp"
#include "fabric/serving.hpp"
#include "fabric/sim_executor.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/graph_builders.hpp"
#include "sched/graph_scheduler.hpp"
#include "sched/trace.hpp"

namespace lacb {
namespace {

using namespace lac;
using fabric::KernelKind;

// ---- shared helpers -----------------------------------------------------

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 9;
/// Largest share of the traced end-to-end time the layer spans may leave
/// unattributed before the run counts as incorrect.
constexpr double kReconcileTolPct = 5.0;

std::string kind_key(KernelKind k) {
  std::string s = fabric::to_string(k);
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// Pools use at most nproc - 1 workers: the client thread keeps a core.
unsigned pool_width() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 1 ? hc - 1 : 1;
}

double to_s(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }
double to_ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }
double to_us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Nearest-rank quantile of a small set of per-pass or per-slice figures.
double quantile(std::vector<double> v, double p) {
  Samples s;
  for (double x : v) s.add(x);
  return s.pct(p);
}
std::vector<double> qs(const std::vector<double>& v, std::initializer_list<double> ps) {
  std::vector<double> out;
  for (double p : ps) out.push_back(quantile(v, p));
  return out;
}

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

struct HistPoint {
  std::uint64_t count = 0;
  double sum = 0.0;
};
HistPoint histogram(const char* name) {
  obs::Histogram& h = obs::MetricsRegistry::global().histogram(
      name, obs::default_latency_bounds_us());
  return {h.count(), h.sum()};
}

/// Host-reference numerics of a request (the registry's reference_run).
KernelResult reference(const KernelRequest& req) {
  KernelResult ref;
  const std::string err = fabric::kernel_traits(req.kind).reference_run(req, ref);
  ref.ok = err.empty();
  ref.error = err;
  return ref;
}

std::string describe(const KernelRequest& req) {
  std::ostringstream os;
  os << fabric::to_string(req.kind) << " " << req.a.rows() << "x" << req.a.cols()
     << " bw=" << req.bw_words_per_cycle;
  return os.str();
}

/// One attempted operation: the simulator's numerics against the host
/// reference of the same request.
void check_numerics(Checker& checker, const KernelResult& sim,
                    const KernelRequest& req) {
  const std::string err = compare_numerics(sim, reference(req));
  checker.verdict(err.empty(), describe(req) + ": " + err);
}

/// Set up kSetups times (timing each; the state of the last one is kept).
template <typename State, typename Make>
std::unique_ptr<State> set_up(Make make, std::vector<double>& times) {
  std::unique_ptr<State> st;
  for (int i = 0; i < kSetups; ++i) {
    st.reset();
    const std::uint64_t t0 = now_ns();
    st = make();
    times.push_back(to_s(now_ns() - t0));
  }
  return st;
}

std::string json_list(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) s += (i ? ", " : "") + json_num(v[i]);
  return s + "]";
}

/// setup_s is the median set-up; each one goes into the run record.
void set_setup(Report& t, Output& out, const std::vector<double>& times) {
  t.set("setup_s", median(times), times.size());
  out.record.emplace_back("setup_s_each", json_list(times));
}

/// The simulated figures of a set of distinct requests and their sim
/// results: utilization in simulated time, and the analytical model's
/// error against the simulator (the oracle).
struct Accuracy {
  double useful = 0.0, capacity = 0.0;  ///< sum useful MACs, sum useful/util
  Samples cycle_err_abs, energy_err_abs;  ///< |model - sim| / sim, %
  std::map<KernelKind, Samples> cycle_err;  ///< signed, %
  double cycles = 0.0, macs = 0.0, energy_pj = 0.0;

  double utilization() const { return ratio(useful, capacity); }
};

Accuracy accuracy(const std::vector<KernelRequest>& reqs,
                  const std::vector<KernelResult>& sims) {
  Accuracy acc;
  for (std::size_t i = 0; i < reqs.size() && i < sims.size(); ++i) {
    const KernelResult& sim = sims[i];
    if (!sim.ok || sim.cycles.value() <= 0.0) continue;
    const double useful = fabric::useful_macs(reqs[i]).value();
    if (sim.utilization > 0.0) {
      acc.useful += useful;
      acc.capacity += useful / sim.utilization;
    }
    const fabric::ModelCost mc = fabric::model_cost(reqs[i]);
    const double ce = (mc.cycles.value() - sim.cycles.value()) / sim.cycles.value() * 100.0;
    const double ee = (mc.energy.energy_nj().value() - sim.energy_nj.value()) /
                      sim.energy_nj.value() * 100.0;
    acc.cycle_err_abs.add(std::abs(ce));
    acc.energy_err_abs.add(std::abs(ee));
    acc.cycle_err[reqs[i].kind].add(ce);
    acc.cycles += sim.cycles.value();
    acc.macs += static_cast<double>(sim.stats.mac_ops);
    acc.energy_pj += sim.energy_nj.value() * 1e3;
  }
  return acc;
}

void set_accuracy_e2e(Report& t, const Accuracy& acc) {
  const auto n = acc.cycle_err_abs.count();
  t.set("fabric_utilization", acc.utilization(), n);
  t.set("model_cycle_err_pct", acc.cycle_err_abs.mean(), n);
  t.set("model_energy_err_pct", acc.energy_err_abs.mean(), n);
}

void set_accuracy_layers(Report& t, const Accuracy& acc) {
  const auto n = acc.cycle_err_abs.count();
  t.set("sim.cycles", acc.cycles, n);
  t.set("sim.mac_ops", acc.macs, n);
  t.set("power.pj_per_mac", ratio(acc.energy_pj, acc.macs), n);
  for (const auto& [kind, errs] : acc.cycle_err)
    t.set("model." + kind_key(kind) + ".cycle_err_pct", errs.mean(), errs.count());
}

/// Host ns per simulated MAC, per kind, from (ns, macs) sums.
struct KindNs {
  std::map<KernelKind, std::pair<double, double>> sums;
  std::map<KernelKind, std::uint64_t> calls;
  void add(KernelKind k, double ns, double macs) {
    sums[k].first += ns;
    sums[k].second += macs;
    ++calls[k];
  }
  void merge(const KindNs& o) {
    for (const auto& [k, s] : o.sums) {
      sums[k].first += s.first;
      sums[k].second += s.second;
      calls[k] += o.calls.at(k);
    }
  }
  void set(Report& t) const {
    for (const auto& [k, s] : sums)
      t.set("sim." + kind_key(k) + ".ns_per_mac", ratio(s.first, s.second), calls.at(k));
  }
};

/// Per-layer figures every traced pass reports from its span recorder.
void set_span_layers(Report& t, const SpanRecorder& rec, Output& out) {
  auto mean_us = [&](const char* name, SpanKind k) {
    const Samples& d = rec.totals(k).dur_us;
    t.set(name, d.mean(), d.count());
  };
  mean_us("fabric.validate_us", SpanKind::FabricValidate);
  mean_us("sim.run_us", SpanKind::SimRun);
  mean_us("power.energy_us", SpanKind::PowerEnergy);
  mean_us("model.cost_us", SpanKind::ModelCost);
  mean_us("blas.reference_us", SpanKind::BlasReference);
  mean_us("serving.cache.signature_us", SpanKind::ServingSignature);
  mean_us("serving.submit_us", SpanKind::ServingSubmit);
  mean_us("pool.complete_us", SpanKind::PoolComplete);
  mean_us("sched.submit_us", SpanKind::SchedSubmit);

  // Reconciliation: the layers' self times against the traced end-to-end
  // time (the summed op roots); the root's own self time is the part no
  // layer span covers.
  const double e2e = rec.root_ns();
  std::map<std::string, double> layer_ns;
  for (int k = 1; k < static_cast<int>(SpanKind::kCount); ++k) {
    const SpanKind kind = static_cast<SpanKind>(k);
    layer_ns[span_layer(kind)] += rec.totals(kind).self_ns;
  }
  const double unattributed = rec.totals(SpanKind::Op).self_ns;
  const double unattributed_pct = ratio(unattributed, e2e) * 100.0;
  t.set("trace.unattributed_pct", unattributed_pct, rec.ops());
  for (const char* layer : {"fabric", "sim", "power", "model", "blas", "serving",
                            "pool", "sched", "harness"})
    t.set(std::string("self.") + layer + "_pct", ratio(layer_ns[layer], e2e) * 100.0,
          rec.ops());

  double layers_total = 0.0;
  std::ostringstream os;
  os << "{\"traced_e2e_ms\": " << json_num(e2e / 1e6) << ", \"ops\": " << rec.ops()
     << ", \"tolerance_pct\": " << json_num(kReconcileTolPct) << ", \"layers_self_ms\": {";
  bool first = true;
  for (const auto& [layer, ns] : layer_ns) {
    layers_total += ns;
    os << (first ? "" : ", ") << json_str(layer) << ": " << json_num(ns / 1e6);
    first = false;
  }
  os << "}, \"spans\": {";
  first = true;
  for (int k = 0; k < static_cast<int>(SpanKind::kCount); ++k) {
    const auto& tot = rec.totals(static_cast<SpanKind>(k));
    if (tot.dur_us.count() == 0) continue;
    os << (first ? "" : ", ") << json_str(span_name(static_cast<SpanKind>(k)))
       << ": {\"count\": " << tot.dur_us.count()
       << ", \"mean_us\": " << json_num(tot.dur_us.mean())
       << ", \"self_ms\": " << json_num(tot.self_ns / 1e6) << "}";
    first = false;
  }
  os << "}, \"layers_sum_ms\": " << json_num(layers_total / 1e6)
     << ", \"unattributed_pct\": " << json_num(unattributed_pct) << "}";
  out.record.emplace_back("reconciliation", os.str());
  if (rec.ops() == 0 || unattributed_pct > kReconcileTolPct) {
    out.reconciled = false;
    out.failures.push_back("layer self times leave " + json_num(unattributed_pct) +
                           "% of the traced end-to-end time unattributed");
  }
}

/// Counter deltas of the simulator's own caches over a measured pass.
struct SimCacheCounters {
  std::uint64_t core_hits = counter("lac.sim.arena.core_hits");
  std::uint64_t core_misses = counter("lac.sim.arena.core_misses");
  std::uint64_t plan_hits = counter("lac.fabric.schedule.plan_hits");
  std::uint64_t plan_misses = counter("lac.fabric.schedule.plan_misses");

  void set_delta(Report& t) const {
    const SimCacheCounters now;
    const double ch = static_cast<double>(now.core_hits - core_hits);
    const double cm = static_cast<double>(now.core_misses - core_misses);
    const double ph = static_cast<double>(now.plan_hits - plan_hits);
    const double pm = static_cast<double>(now.plan_misses - plan_misses);
    t.set("sim.arena.core_hit_rate", ratio(ch, ch + cm),
          static_cast<std::uint64_t>(ch + cm));
    t.set("stream_schedule.plan_hit_rate", ratio(ph, ph + pm),
          static_cast<std::uint64_t>(ph + pm));
  }
};

/// The traced pass: a TraceSession exporting Chrome JSON at the end. Its
/// rings keep each thread's latest spans; the events they overwrote go into
/// the run record.
class TracedPass {
 public:
  TracedPass(const Options& opt, Output& out) : opt_(opt), out_(out), session_(options()) {}
  ~TracedPass() { finish(); }
  TracedPass(const TracedPass&) = delete;
  TracedPass& operator=(const TracedPass&) = delete;

  void finish() {
    if (done_) return;
    done_ = true;
    session_.stop();
    if (!opt_.trace_out.empty()) session_.write_chrome_trace(opt_.trace_out);
    out_.record.emplace_back("trace_dropped_events", std::to_string(session_.dropped()));
  }

 private:
  static obs::TraceSessionOptions options() {
    obs::TraceSessionOptions o;
    o.ring_capacity = 8192;
    return o;
  }
  const Options& opt_;
  Output& out_;
  obs::TraceSession session_;
  bool done_ = false;
};

void set_overhead(Report& t, double untraced_op_ns, double traced_op_ns,
                  std::uint64_t samples) {
  t.set("trace_overhead_pct", (ratio(traced_op_ns, untraced_op_ns) - 1.0) * 100.0,
        samples);
}

void finish_checks(const Checker& checker, Output& out) {
  out.attempted = checker.attempted();
  out.failed = checker.failed();
  for (const std::string& r : checker.reasons()) out.failures.push_back(r);
}

// ---- sim_grid -------------------------------------------------------------
//
// Closed loop on the client thread over every registered kind at
// n in {16, 32, 48, 64} and a bandwidth-bound and a compute-bound bw,
// straight through SimExecutor::execute. The simulator does nearly all the
// work; the pool, cache and scheduler do none.

struct SimGrid {
  std::vector<KernelRequest> reqs;
  std::vector<std::uint64_t> expect;  ///< fingerprint of the first pass
  std::vector<KernelResult> first;
  Checker checker;
};

/// The reference grid: every registered kind at n in {16, 32, 48, 64} and
/// bw 0.5 (bandwidth-bound) and 4 (compute-bound) on the baseline core.
std::vector<KernelRequest> reference_grid(std::uint64_t seed) {
  std::vector<KernelRequest> reqs;
  const arch::CoreConfig cfg = arch::lac_4x4_dp();
  seed *= 1000003;
  for (double bw : {0.5, 4.0})
    for (KernelKind k : fabric::registered_kernel_kinds())
      for (index_t n : {16, 32, 48, 64})
        reqs.push_back(fabric::kernel_traits(k).sized_request(cfg, bw, n, seed += 7));
  return reqs;
}

std::unique_ptr<SimGrid> sim_grid_setup(const Options& opt) {
  auto st = std::make_unique<SimGrid>();
  st->reqs = reference_grid(opt.seed);
  // The warm-up pass fills the SimArena and Rank1Plan caches, checks every
  // result against the host reference, and fingerprints it.
  const fabric::SimExecutor sim;
  for (const KernelRequest& req : st->reqs) {
    KernelResult r = sim.execute(req);
    check_numerics(st->checker, r, req);
    st->expect.push_back(result_digest(r));
    st->first.push_back(std::move(r));
  }
  return st;
}

/// A closed loop's figures. Rates are taken per pass over the workload's
/// operation list and reported at the loaded end of the passes (the 10th
/// percentile rate, the 90th percentile ns/MAC): on a shared host the same
/// single-threaded loop runs up to 1.7x faster while neighbours leave the
/// core idle, in stretches of seconds whose share of a run varies from run
/// to run, so pooled figures, medians and the fast end move with it. The
/// loaded state fills most of every run; its figures repeat across runs
/// within a few percent. The pass distribution stays in the run record.
struct LoopResult {
  Samples lat_ms;
  std::uint64_t ops = 0, ok = 0;
  double service_ns = 0.0;
  double macs = 0.0;
  KindNs kind_ns;
  std::vector<double> pass_rate, pass_good, pass_ns_per_mac;

  void add(double ns, double op_macs, bool good) {
    lat_ms.add(ns / 1e6);
    service_ns += ns;
    macs += op_macs;
    ++ops;
    if (good) ++ok;
    pass_.ns += ns;
    pass_.macs += op_macs;
    ++pass_.ops;
    if (good) ++pass_.ok;
  }
  /// Close the current pass; an incomplete one counts only when no pass
  /// completed.
  void end_pass(bool complete) {
    if (pass_.ops > 0 && (complete || pass_rate.empty())) {
      pass_rate.push_back(pass_.ops / (pass_.ns / 1e9));
      pass_good.push_back(pass_.ok / (pass_.ns / 1e9));
      pass_ns_per_mac.push_back(ratio(pass_.ns, pass_.macs));
    }
    pass_ = Pass{};
  }
  void set_e2e(Report& t) {
    t.set("ops_per_s", quantile(pass_rate, 0.1), ops);
    t.set("p50_ms", lat_ms.pct(0.50), lat_ms.count());
    t.set("p99_ms", lat_ms.pct(0.99), lat_ms.count());
    t.set("goodput_rps", quantile(pass_good, 0.1), ok);
    t.set("sim_ns_per_mac", quantile(pass_ns_per_mac, 0.9), ops);
  }
  std::string passes_json() const {
    return "{\"passes\": " + std::to_string(pass_rate.size()) +
           ", \"ops_per_s_p10_p50_p90\": " + json_list(qs(pass_rate, {0.1, 0.5, 0.9})) +
           ", \"ns_per_mac_p10_p50_p90\": " +
           json_list(qs(pass_ns_per_mac, {0.1, 0.5, 0.9})) + "}";
  }
  double mean_op_ns() const { return ratio(service_ns, static_cast<double>(ops)); }

 private:
  struct Pass {
    double ns = 0.0, macs = 0.0;
    std::uint64_t ops = 0, ok = 0;
  } pass_;
};

LoopResult sim_grid_loop(SimGrid& st, double seconds, SpanRecorder* rec,
                         std::uint64_t& op_id) {
  const fabric::SimExecutor sim;
  LoopResult lr;
  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  for (std::size_t i = 0; now_ns() < deadline; i = (i + 1) % st.reqs.size()) {
    if (i == 0) lr.end_pass(true);
    const KernelRequest& req = st.reqs[i];
    const std::uint64_t op = ++op_id;
    std::uint64_t run_ns = 0;
    const std::uint64_t t0 = now_ns();
    KernelResult r = rec ? traced_sim_execute(req, *rec, op, 0, &run_ns) : sim.execute(req);
    const std::uint64_t t1 = now_ns();
    if (rec) {
      rec->add_with_id(0, op, SpanKind::Op, t0, t1);
      if (op % 4096 == 0) rec->attribute();
    } else {
      run_ns = t1 - t0;
    }
    lr.kind_ns.add(req.kind, static_cast<double>(run_ns), static_cast<double>(r.stats.mac_ops));
    lr.add(static_cast<double>(t1 - t0), static_cast<double>(r.stats.mac_ops),
           st.checker.check(r, st.expect[i], "sim_grid fingerprint"));
  }
  lr.end_pass(false);
  return lr;
}

void sim_grid(const Options& opt, Output& out) {
  std::vector<double> setup_s;
  auto st = set_up<SimGrid>([&] { return sim_grid_setup(opt); }, setup_s);
  const Accuracy acc = accuracy(st->reqs, st->first);
  std::uint64_t op_id = 0;

  if (!opt.trace) {
    LoopResult lr = sim_grid_loop(*st, opt.seconds, nullptr, op_id);
    out.record.emplace_back("passes", lr.passes_json());
    Report& t = out.metrics;
    set_setup(t, out, setup_s);
    t.set("peak_rss_mb", peak_rss_mb(), 1);
    lr.set_e2e(t);
    set_accuracy_e2e(t, acc);
  } else {
    LoopResult base = sim_grid_loop(*st, opt.seconds / 2, nullptr, op_id);
    SpanRecorder rec;
    const SimCacheCounters counters;
    LoopResult lr;
    {
      TracedPass pass(opt, out);
      lr = sim_grid_loop(*st, opt.seconds / 2, &rec, op_id);
      rec.attribute();
      pass.finish();
    }
    Report& t = out.metrics;
    set_span_layers(t, rec, out);
    counters.set_delta(t);
    lr.kind_ns.set(t);
    set_accuracy_layers(t, acc);
    set_overhead(t, base.mean_op_ns(), lr.mean_op_ns(), lr.ops);
  }
  finish_checks(st->checker, out);
  std::ostringstream os;
  os << "{\"grid_points\": " << st->reqs.size() << ", \"bw\": [0.5, 4.0], \"n\": [16, 32, 48, 64]}";
  out.record.emplace_back("workload", os.str());
}

// ---- explore_model ----------------------------------------------------------
//
// Closed loop of ModelExecutor(&cache).execute over a seeded design-space
// sweep (kind, n <= 32, nr, bw, overlap, clock). A fixed share of the
// points revisits an earlier signature; the rest are new. The cache is
// emptied at the start of every pass over the sweep, so each pass sees the
// same hits and misses. The simulator does nothing in the timed loop.

struct Explore {
  std::vector<KernelRequest> points;  ///< distinct design points
  std::vector<std::size_t> sweep;     ///< point index per operation
  std::vector<std::uint64_t> expect;  ///< fingerprint per point
  std::size_t revisits = 0;
  std::size_t templates = 0;  ///< (nr, kind, n) operand payloads
  fabric::CostCache cache;
  Checker checker;
};

constexpr std::size_t kSweepOps = 8192;
/// Share of the sweep's operations that revisit an earlier signature.
constexpr double kRevisitShare = 0.5;

std::unique_ptr<Explore> explore_setup(const Options& opt) {
  auto st = std::make_unique<Explore>();
  // Operand payloads per (nr, kind, n); design points share them.
  std::vector<KernelRequest> templates;
  std::uint64_t seed = opt.seed * 7919;
  for (const arch::CoreConfig& core : {arch::lac_4x4_dp(), arch::lac_8x8_dp()})
    for (KernelKind k : fabric::registered_kernel_kinds())
      for (index_t n : {8, 16, 24, 32}) {
        KernelRequest req = fabric::kernel_traits(k).sized_request(core, 1.0, n, seed += 13);
        if (fabric::validate(req).empty()) templates.push_back(std::move(req));
      }
  st->templates = templates.size();
  // The sweep visits the templates in turn, so every seed gives each pass
  // the same work; within a template, visit j revisits an earlier point of
  // that template when floor((j + 1) * share) > floor(j * share), which
  // fixes the revisit share exactly.
  Rng rng(opt.seed ^ 0x5eedull);
  std::vector<std::vector<std::size_t>> made(templates.size());
  for (std::size_t i = 0; i < kSweepOps; ++i) {
    const std::size_t t = i % templates.size();
    const double j = static_cast<double>(i / templates.size());
    const bool revisit =
        j > 0 && std::floor((j + 1) * kRevisitShare) > std::floor(j * kRevisitShare);
    if (revisit) {
      st->sweep.push_back(made[t][rng.next_index(made[t].size())]);
      ++st->revisits;
      continue;
    }
    for (;;) {
      KernelRequest q = templates[t];
      q.bw_words_per_cycle = rng.uniform(0.25, 8.0);
      q.overlap = rng.uniform() < 0.5 ? model::Overlap::Partial : model::Overlap::Full;
      q.tech.clock_ghz = rng.uniform(0.6, 1.6);
      if (!fabric::validate(q).empty()) continue;
      st->points.push_back(std::move(q));
      break;
    }
    made[t].push_back(st->points.size() - 1);
    st->sweep.push_back(st->points.size() - 1);
  }
  // Warm-up pass: fingerprints every point and checks that the cache hands
  // back the closed-form model's cycles.
  st->expect.assign(st->points.size(), 0);
  std::vector<bool> seen(st->points.size(), false);
  const fabric::ModelExecutor model(&st->cache);
  for (std::size_t j : st->sweep) {
    if (seen[j]) continue;
    seen[j] = true;
    const KernelRequest& q = st->points[j];
    const KernelResult r = model.execute(q);
    st->checker.verdict(r.ok && r.cycles.value() == fabric::model_cost(q).cycles.value(),
                        describe(q) + ": cached cycles differ from model_cost");
    st->expect[j] = result_digest(r);
  }
  return st;
}

struct ExploreLayers {
  Samples hit_us, miss_us;
};

/// ModelExecutor::execute with a cache, rebuilt from its public calls.
KernelResult traced_model_execute(const KernelRequest& req, fabric::CostCache& cache,
                                  SpanRecorder& rec, std::uint64_t op,
                                  ExploreLayers& layers) {
  ScopedSpan exec(&rec, op, SpanKind::FabricExecute, 0);
  std::string err;
  {
    ScopedSpan s(&rec, op, SpanKind::FabricValidate, exec.id());
    err = fabric::validate(req);
  }
  if (!err.empty()) return fabric::make_failed(req, "model", err);
  KernelResult res;
  res.backend = "model";
  res.tag = req.tag;
  {
    ScopedSpan s(&rec, op, SpanKind::BlasReference, exec.id());
    err = fabric::kernel_traits(req.kind).reference_run(req, res);
  }
  if (!err.empty()) {
    res.error = err;
    return res;
  }
  const std::uint64_t hits = cache.hits();
  const std::uint64_t t0 = now_ns();
  const fabric::CostCache::Estimate est = cache.estimate(req);
  const std::uint64_t t1 = now_ns();
  rec.add(op, SpanKind::ServingEstimate, t0, t1, exec.id());
  (cache.hits() != hits ? layers.hit_us : layers.miss_us).add(to_us(t1 - t0));
  res.cycles = est.cycles;
  res.utilization = est.utilization;
  power::EnergyReport energy;
  energy.dynamic_nj = est.energy_nj;
  energy.avg_power_w = est.avg_power_w;
  energy.area_mm2 = est.area_mm2;
  fabric::attach_cost(res, req, energy);
  res.ok = true;
  return res;
}

LoopResult explore_loop(Explore& st, double seconds, SpanRecorder* rec,
                        ExploreLayers* layers, std::uint64_t& op_id) {
  const fabric::ModelExecutor model(&st.cache);
  LoopResult lr;
  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  while (now_ns() < deadline) {
    st.cache.clear();  // every pass starts cold: the sweep's new points miss
    for (std::size_t i = 0; i < st.sweep.size() && now_ns() < deadline; ++i) {
      const std::size_t j = st.sweep[i];
      const KernelRequest& q = st.points[j];
      const std::uint64_t op = ++op_id;
      const std::uint64_t t0 = now_ns();
      KernelResult r = rec ? traced_model_execute(q, st.cache, *rec, op, *layers)
                           : model.execute(q);
      const std::uint64_t t1 = now_ns();
      if (rec) {
        rec->add_with_id(0, op, SpanKind::Op, t0, t1);
        // The signature and the uncached model, timed on their own after
        // the operation (outside its end-to-end interval).
        {
          ScopedSpan s(rec, op, SpanKind::ServingSignature);
          (void)fabric::CostCache::signature(q);
        }
        double cycles = 0.0;
        {
          ScopedSpan s(rec, op, SpanKind::ModelCost);
          cycles = fabric::model_cost(q).cycles.value();
        }
        if (cycles != r.cycles.value())
          st.checker.verdict(false, describe(q) + ": cached cycles differ from model_cost");
        if (op % 4096 == 0) rec->attribute();
      }
      lr.add(static_cast<double>(t1 - t0), fabric::useful_macs(q).value(),
             st.checker.check(r, st.expect[j], "explore_model fingerprint"));
    }
    lr.end_pass(now_ns() < deadline);
  }
  return lr;
}

/// explore_model runs no simulator; its simulated figures are the
/// model's accuracy over the reference grid, simulated after the timed
/// loop (deterministic, and the same grid sim_grid measures).
Accuracy explore_accuracy(Explore& st, std::uint64_t seed) {
  const fabric::SimExecutor sim;
  const std::vector<KernelRequest> reqs = reference_grid(seed);
  std::vector<KernelResult> sims;
  for (const KernelRequest& req : reqs) {
    sims.push_back(sim.execute(req));
    check_numerics(st.checker, sims.back(), req);
  }
  return accuracy(reqs, sims);
}

void explore_model(const Options& opt, Output& out) {
  std::vector<double> setup_s;
  auto st = set_up<Explore>([&] { return explore_setup(opt); }, setup_s);
  std::uint64_t op_id = 0;
  // CostCache::clear() resets the per-cache counters every pass; the
  // process-wide ones keep counting.
  const std::uint64_t hits0 = counter("lac.serving.cache.hits");
  const std::uint64_t misses0 = counter("lac.serving.cache.misses");

  if (!opt.trace) {
    LoopResult lr = explore_loop(*st, opt.seconds, nullptr, nullptr, op_id);
    out.record.emplace_back("passes", lr.passes_json());
    const double rss = peak_rss_mb();
    const Accuracy acc = explore_accuracy(*st, opt.seed);
    Report& t = out.metrics;
    set_setup(t, out, setup_s);
    t.set("peak_rss_mb", rss, 1);
    // No simulator runs here: sim_ns_per_mac is host ns per useful MAC of
    // the evaluated design points.
    lr.set_e2e(t);
    set_accuracy_e2e(t, acc);
  } else {
    LoopResult base = explore_loop(*st, opt.seconds / 2, nullptr, nullptr, op_id);
    SpanRecorder rec;
    ExploreLayers layers;
    const std::uint64_t h0 = counter("lac.serving.cache.hits");
    const std::uint64_t m0 = counter("lac.serving.cache.misses");
    LoopResult lr;
    {
      TracedPass pass(opt, out);
      lr = explore_loop(*st, opt.seconds / 2, &rec, &layers, op_id);
      rec.attribute();
      pass.finish();
    }
    const double hits = static_cast<double>(counter("lac.serving.cache.hits") - h0);
    const double misses = static_cast<double>(counter("lac.serving.cache.misses") - m0);
    const Accuracy acc = explore_accuracy(*st, opt.seed);
    Report& t = out.metrics;
    set_span_layers(t, rec, out);
    t.set("serving.cache.hit_us", layers.hit_us.mean(), layers.hit_us.count());
    t.set("serving.cache.miss_us", layers.miss_us.mean(), layers.miss_us.count());
    t.set("serving.cache.hit_rate", ratio(hits, hits + misses),
          static_cast<std::uint64_t>(hits + misses));
    t.set("serving.cache.entries", static_cast<double>(st->cache.size()), 1);
    set_accuracy_layers(t, acc);
    set_overhead(t, base.mean_op_ns(), lr.mean_op_ns(), lr.ops);
  }
  finish_checks(st->checker, out);
  const double hits = static_cast<double>(counter("lac.serving.cache.hits") - hits0);
  const double misses = static_cast<double>(counter("lac.serving.cache.misses") - misses0);
  std::ostringstream os;
  os << "{\"sweep_ops\": " << st->sweep.size() << ", \"distinct_points\": "
     << st->points.size() << ", \"revisit_share\": "
     << json_num(static_cast<double>(st->revisits) / st->sweep.size())
     << ", \"cache_hit_rate\": " << json_num(ratio(hits, hits + misses))
     << ", \"templates\": " << st->templates << "}";
  out.record.emplace_back("workload", os.str());
}

// ---- shared by the pool workloads ---------------------------------------

/// The single-kernel serving traffic: sched::default_serving_mix() at
/// n in {16, 32}, bw 2, on the baseline core; fingerprinted by one direct
/// SimExecutor run each (checked against the host reference).
struct MixTemplates {
  std::vector<KernelRequest> reqs;
  std::vector<std::uint64_t> expect;
  std::vector<KernelResult> first;

  void build(std::uint64_t seed, Checker& checker) {
    const arch::CoreConfig cfg = arch::lac_4x4_dp();
    for (index_t n : {16, 32})
      for (KernelKind k : sched::default_serving_mix())
        reqs.push_back(fabric::kernel_traits(k).sized_request(cfg, 2.0, n, seed += 17));
    const fabric::SimExecutor sim;
    for (const KernelRequest& req : reqs) {
      KernelResult r = sim.execute(req);
      check_numerics(checker, r, req);
      expect.push_back(result_digest(r));
      first.push_back(std::move(r));
    }
  }
};

/// Execute intervals per op, and busy time and MACs per kind, from the
/// timing decorator's logs.
struct ExecSpan {
  std::uint64_t first_start = UINT64_MAX, last_end = 0;
};

struct ExecTotals {
  std::map<std::uint64_t, ExecSpan> ops;
  double busy_ns = 0.0, macs = 0.0;
  KindNs kind_ns;

  void add(const std::vector<ExecRec>& log) {
    for (const ExecRec& e : log) {
      ExecSpan& s = ops[e.op];
      s.first_start = std::min(s.first_start, e.start);
      s.last_end = std::max(s.last_end, e.end);
      busy_ns += static_cast<double>(e.end - e.start);
      macs += static_cast<double>(e.macs);
      kind_ns.add(e.kind, static_cast<double>(e.run_ns), static_cast<double>(e.macs));
    }
  }
};

// ---- serve_open -------------------------------------------------------------
//
// Open loop: seeded Poisson arrivals at each step of a fixed absolute rate
// ladder, sent through AsyncExecutor (CostCache hints, sim backend behind
// the timing decorator) on a pool of nproc - 1 workers. Latency runs from
// the time a request was due, so a generator stall shows up as latency.

struct Serve {
  Checker checker;  // first in, last out: hooks report to it
  MixTemplates mix;
  fabric::SimExecutor sim;
  TimingExecutor timing{sim};
  fabric::CostCache hints;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<fabric::AsyncExecutor> async;
};

std::unique_ptr<Serve> serve_setup(const Options& opt) {
  auto st = std::make_unique<Serve>();
  st->mix.build(opt.seed * 7907, st->checker);
  st->pool = std::make_unique<ThreadPool>(pool_width());
  st->async = std::make_unique<fabric::AsyncExecutor>(st->timing, st->pool.get(), &st->hints);
  // Warm every worker's simulator caches and every hint; results at pool
  // width W must match the direct run's fingerprints.
  std::vector<std::future<KernelResult>> futs;
  for (unsigned rep = 0; rep < 2 * pool_width(); ++rep)
    for (const KernelRequest& req : st->mix.reqs) futs.push_back(st->async->submit(req));
  for (std::size_t i = 0; i < futs.size(); ++i)
    st->checker.check(futs[i].get(), st->mix.expect[i % st->mix.reqs.size()],
                      "serve_open width W");
  st->timing.collect();
  return st;
}

/// The fixed absolute rate ladder (req/s), spanning about 25-90% of the
/// mix's serial capacity on a 4-core x86 host.
constexpr std::array<double, 4> kLadder = {3000, 6000, 9000, 12000};
/// The step whose p50/p99 are reported (6k req/s).
constexpr std::size_t kReportStep = 1;
/// p99 limit of a goodput step, measured from due time.
constexpr double kLatencyLimitMs = 2.0;
/// Shed beyond this backlog: the step misses its limits (a performance
/// result, not a wrong answer, so the checker does not see it).
constexpr std::size_t kMaxBacklog = 2000;
/// Ladder traversals per run (a 25 s run gives each step 44 ms windows).
/// Each SLO figure of a step (p50, p99, the end-of-window backlog) is its
/// best traversal: on a shared host, scheduling stalls of several
/// milliseconds hit most 0.3 s windows, and host speed swings up to 1.7x
/// over stretches of seconds, so the figure needs many short windows spread
/// over the whole run to find a quiet one. The best traversal still carries
/// every cost the program itself adds; the pooled figures stay in the run
/// record.
constexpr int kRounds = 128;

double best(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

struct ServeSlot {
  std::uint64_t due = 0, s0 = 0, s1 = 0, done = 0;
  bool ok = false, sent = false;
};

struct StepTotals {
  double rate = 0.0;
  double window_s = 0.0;
  std::uint64_t due = 0, completed = 0, ok = 0, failed = 0;
  std::size_t worst_backlog = 0;
  std::vector<double> round_backlog_excess;  ///< end backlog - allowance
  Samples lat_ms;
  Samples late_ms;
  Samples sent_lat_ms;  ///< from send instead of due time
  std::vector<double> round_p50, round_p99;
  double p50() const { return best(round_p50); }
  double p99() const { return best(round_p99); }
  bool pass() const {
    return failed == 0 && best(round_backlog_excess) <= 0.0 && p99() <= kLatencyLimitMs;
  }
};

struct ServePassResult {
  std::vector<StepTotals> steps;
  double ladder_s = 0.0;
  double exec_busy_ns = 0.0;
  std::vector<double> window_ns_per_mac;  ///< per window; the median is reported
  Samples submit_us, queue_wait_us, complete_us, late_ms;
  KindNs kind_ns;
  std::uint64_t steals = 0;
};

void serve_step(Serve& st, const Options& opt, double rate, double window_s,
                std::uint64_t stream, SpanRecorder* rec, std::uint64_t& op_id,
                StepTotals& tot, ServePassResult& pr) {
  // Arrivals and kinds are fixed by the seed, the round and the step.
  Rng rng(opt.seed * 0x9e3779b97f4a7c15ull + stream);
  std::vector<std::uint64_t> rel;
  std::vector<std::size_t> tmpl;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= window_s) break;
    rel.push_back(static_cast<std::uint64_t>(t * 1e9));
    tmpl.push_back(rng.next_index(st.mix.reqs.size()));
  }
  std::vector<ServeSlot> slots(rel.size());
  std::atomic<std::uint64_t> completed{0};
  const std::uint64_t op_base = op_id + 1;
  op_id += rel.size();

  const std::uint64_t base = now_ns() + 1'000'000;
  std::size_t sent = 0;
  for (std::size_t i = 0; i < rel.size(); ++i) {
    ServeSlot& slot = slots[i];
    slot.due = base + rel[i];
    wait_until_ns(slot.due);
    if (sent - completed.load(std::memory_order_relaxed) > kMaxBacklog) continue;
    KernelRequest req = st.mix.reqs[tmpl[i]];
    req.tag = op_tag(op_base + i);
    const std::uint64_t expect = st.mix.expect[tmpl[i]];
    slot.s0 = now_ns();
    st.async->submit(std::move(req), [&slot, &completed, &st, expect](const KernelResult& r) {
      slot.done = now_ns();
      slot.ok = st.checker.check(r, expect, "serve_open");
      completed.fetch_add(1, std::memory_order_release);
    });
    slot.s1 = now_ns();
    slot.sent = true;
    ++sent;
  }
  const std::uint64_t window_end = base + static_cast<std::uint64_t>(window_s * 1e9);
  wait_until_ns(window_end);
  const std::size_t backlog = sent - completed.load(std::memory_order_acquire);
  st.pool->drain();

  tot.rate = rate;
  tot.window_s += window_s;
  tot.worst_backlog = std::max(tot.worst_backlog, backlog);
  // The backlog may hold what arrives within one latency limit, plus one
  // request per worker; more means the queue is growing.
  tot.round_backlog_excess.push_back(
      static_cast<double>(backlog) -
      (rate * kLatencyLimitMs / 1e3 + static_cast<double>(st.pool->size())));

  ExecTotals et;
  et.add(st.timing.collect());
  pr.exec_busy_ns += et.busy_ns;
  if (et.macs > 0.0) pr.window_ns_per_mac.push_back(et.busy_ns / et.macs);
  pr.kind_ns.merge(et.kind_ns);
  const auto& execs = et.ops;
  Samples round_lat;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const ServeSlot& s = slots[i];
    ++tot.due;
    if (!s.sent) {  // shed: a miss of every limit, not a wrong result
      ++tot.failed;
      tot.lat_ms.add(1e9);
      round_lat.add(1e9);
      continue;
    }
    ++tot.completed;
    s.ok ? ++tot.ok : ++tot.failed;
    tot.lat_ms.add(to_ms(s.done - s.due));
    round_lat.add(to_ms(s.done - s.due));
    tot.late_ms.add(to_ms(s.s0 - s.due));
    tot.sent_lat_ms.add(to_ms(s.done - s.s0));
    pr.late_ms.add(to_ms(s.s0 - s.due));
    pr.submit_us.add(to_us(s.s1 - s.s0));
    const auto it = execs.find(op_base + i);
    if (it == execs.end()) continue;
    const ExecSpan& e = it->second;
    pr.queue_wait_us.add(e.first_start > s.s1 ? to_us(e.first_start - s.s1) : 0.0);
    pr.complete_us.add(s.done > e.last_end ? to_us(s.done - e.last_end) : 0.0);
    if (rec) {
      const std::uint64_t op = op_base + i;
      rec->add_with_id(0, op, SpanKind::Op, s.due, s.done);
      rec->add(op, SpanKind::GenLate, s.due, s.s0);
      rec->add(op, SpanKind::ServingSubmit, s.s0, s.s1);
      if (e.first_start > s.s1) rec->add(op, SpanKind::PoolQueueWait, s.s1, e.first_start);
      if (s.done > e.last_end) rec->add(op, SpanKind::PoolComplete, e.last_end, s.done);
    }
  }
  tot.round_p50.push_back(round_lat.pct(0.50));
  tot.round_p99.push_back(round_lat.pct(0.99));
  if (rec) rec->attribute();
}

ServePassResult serve_pass(Serve& st, const Options& opt, double seconds,
                           SpanRecorder* rec, std::uint64_t& op_id) {
  ServePassResult pr;
  pr.steps.resize(kLadder.size());
  const double window = seconds / (kRounds * static_cast<double>(kLadder.size()));
  const std::uint64_t steals0 = counter("lac.pool.steals");
  st.timing.set_recorder(rec);
  for (int round = 0; round < kRounds; ++round)
    for (std::size_t s = 0; s < kLadder.size(); ++s) {
      serve_step(st, opt, kLadder[s], window, round * 64 + s, rec, op_id,
                 pr.steps[s], pr);
      pr.ladder_s += window;
    }
  st.timing.set_recorder(nullptr);
  pr.steals = counter("lac.pool.steals") - steals0;
  return pr;
}

/// Serial floor: the same mix executed back to back on the client thread.
double serial_floor_rps(Serve& st, double seconds) {
  const fabric::SimExecutor sim;
  std::uint64_t n = 0;
  const std::uint64_t t0 = now_ns();
  const std::uint64_t deadline = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  for (std::size_t i = 0; now_ns() < deadline; i = (i + 1) % st.mix.reqs.size(), ++n)
    st.checker.check(sim.execute(st.mix.reqs[i]), st.mix.expect[i], "serial floor");
  return static_cast<double>(n) / to_s(now_ns() - t0);
}

/// Results at pool width 1 must be byte-identical to width W (both are
/// checked against the same direct-run fingerprints).
void width_one_check(Serve& st) {
  ThreadPool one(1);
  const fabric::AsyncExecutor async(st.sim, &one);
  std::vector<std::future<KernelResult>> futs;
  for (int rep = 0; rep < 2; ++rep)
    for (const KernelRequest& req : st.mix.reqs) futs.push_back(async.submit(req));
  for (std::size_t i = 0; i < futs.size(); ++i)
    st.checker.check(futs[i].get(), st.mix.expect[i % st.mix.reqs.size()],
                     "serve_open width 1");
}

struct Goodput {
  double rps = 0.0;
  std::uint64_t samples = 0;
  double step = 0.0;
};

Goodput goodput(const ServePassResult& pr) {
  Goodput g;
  for (const StepTotals& s : pr.steps)
    if (s.pass() && s.rate > g.step) {
      g.step = s.rate;
      g.rps = s.ok / s.window_s;
      g.samples = s.ok;
    }
  return g;
}

std::string ladder_json(ServePassResult& pr) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < pr.steps.size(); ++i) {
    StepTotals& s = pr.steps[i];
    os << (i ? ", " : "") << "{\"rate_rps\": " << json_num(s.rate)
       << ", \"due\": " << s.due << ", \"completed\": " << s.completed
       << ", \"failed\": " << s.failed
       << ", \"p50_ms\": " << json_num(s.p50())
       << ", \"p99_ms\": " << json_num(s.p99())
       << ", \"pooled_p50_ms\": " << json_num(s.lat_ms.pct(0.5))
       << ", \"pooled_p99_ms\": " << json_num(s.lat_ms.pct(0.99))
       << ", \"pooled_p99_from_send_ms\": " << json_num(s.sent_lat_ms.pct(0.99))
       << ", \"round_p50_ms\": " << json_list(s.round_p50)
       << ", \"round_p99_ms\": " << json_list(s.round_p99)
       << ", \"achieved_rps\": " << json_num(s.ok / s.window_s)
       << ", \"worst_backlog\": " << s.worst_backlog
       << ", \"gen_late_p99_ms\": " << json_num(s.late_ms.pct(0.99))
       << ", \"meets_limit\": " << (s.pass() ? "true" : "false") << "}";
  }
  os << "]";
  return os.str();
}

void serve_open(const Options& opt, Output& out) {
  std::vector<double> setup_s;
  auto st = set_up<Serve>([&] { return serve_setup(opt); }, setup_s);
  const Accuracy acc = accuracy(st->mix.reqs, st->mix.first);
  std::uint64_t op_id = 0;
  const double serial_s = 0.1 * opt.seconds;
  const double serial = serial_floor_rps(*st, serial_s);
  width_one_check(*st);
  const double ladder_s = opt.seconds - serial_s;
  const std::uint64_t hint_hits0 = st->hints.hits(), hint_misses0 = st->hints.misses();

  ServePassResult pr;
  if (!opt.trace) {
    pr = serve_pass(*st, opt, ladder_s, nullptr, op_id);
    const Goodput g = goodput(pr);
    const StepTotals& at = pr.steps[kReportStep];
    // Successful completions per second: in an open loop this is the
    // offered rate of the ladder until requests are shed or fail.
    std::uint64_t completed = 0, ok = 0;
    for (const StepTotals& s : pr.steps) {
      completed += s.completed;
      ok += s.ok;
    }
    Report& t = out.metrics;
    set_setup(t, out, setup_s);
    t.set("peak_rss_mb", peak_rss_mb(), 1);
    t.set("ops_per_s", ok / pr.ladder_s, ok);
    t.set("p50_ms", at.p50(), at.lat_ms.count());
    t.set("p99_ms", at.p99(), at.lat_ms.count());
    t.set("goodput_rps", g.rps, g.samples);
    t.set("sim_ns_per_mac", quantile(pr.window_ns_per_mac, 0.5), completed);
    set_accuracy_e2e(t, acc);
  } else {
    ServePassResult base = serve_pass(*st, opt, ladder_s / 2, nullptr, op_id);
    SpanRecorder rec;
    {
      TracedPass pass(opt, out);
      pr = serve_pass(*st, opt, ladder_s / 2, &rec, op_id);
      pass.finish();
    }
    const Goodput g = goodput(pr);
    Report& t = out.metrics;
    set_span_layers(t, rec, out);
    pr.kind_ns.set(t);
    set_accuracy_layers(t, acc);
    t.set("pool.queue_wait_p50_us", pr.queue_wait_us.pct(0.50), pr.queue_wait_us.count());
    t.set("pool.queue_wait_p99_us", pr.queue_wait_us.pct(0.99), pr.queue_wait_us.count());
    t.set("pool.busy_share",
          ratio(pr.exec_busy_ns, st->pool->size() * pr.ladder_s * 1e9), pr.queue_wait_us.count());
    t.set("pool.steals", static_cast<double>(pr.steals), 1);
    t.set("pool.serial_floor_rps", serial, 1);
    t.set("pool.goodput_over_serial", ratio(g.rps, serial), g.samples);
    t.set("gen.late_p99_ms", pr.late_ms.pct(0.99), pr.late_ms.count());
    const double hh = static_cast<double>(st->hints.hits() - hint_hits0);
    const double hm = static_cast<double>(st->hints.misses() - hint_misses0);
    t.set("serving.cache.hit_rate", ratio(hh, hh + hm), static_cast<std::uint64_t>(hh + hm));
    t.set("serving.cache.entries", static_cast<double>(st->hints.size()), 1);
    const StepTotals& bat = base.steps[kReportStep];
    const StepTotals& tat = pr.steps[kReportStep];
    set_overhead(t, bat.p50(), tat.p50(), tat.lat_ms.count());
  }
  finish_checks(st->checker, out);
  const Goodput g = goodput(pr);
  std::ostringstream os;
  os << "{\"workers\": " << st->pool->size() << ", \"latency_limit_ms\": "
     << json_num(kLatencyLimitMs) << ", \"report_rate_rps\": "
     << json_num(kLadder[kReportStep]) << ", \"goodput_step_rps\": " << json_num(g.step)
     << ", \"serial_floor_rps\": " << json_num(serial)
     << ", \"goodput_over_serial\": " << json_num(ratio(g.rps, serial))
     << ", \"gen_late_p99_ms\": " << json_num(pr.late_ms.pct(0.99))
     << ", \"window_ns_per_mac_p10_p50_p90\": "
     << json_list(qs(pr.window_ns_per_mac, {0.1, 0.5, 0.9}))
     << ", \"ladder\": " << ladder_json(pr) << "}";
  out.record.emplace_back("workload", os.str());
}

// ---- tenant_dag -------------------------------------------------------------
//
// One client thread keeps a fixed number of jobs outstanding for each of
// three tenants (weights 1, 2, 4). Jobs are tiled-Cholesky graphs mixed
// with single kernels, sent through GraphScheduler on the sim backend
// behind the timing decorator; queue_capacity sits below the outstanding
// total, so admission blocks, and WFQ and ready-set dispatch do real work.

constexpr std::size_t kOutstandingPerTenant = 3;
constexpr std::size_t kQueueCapacity = 6;
constexpr index_t kGraphN = 32, kGraphBlock = 8;
constexpr double kGraphShare = 0.5;
constexpr double kWeights[] = {1.0, 2.0, 4.0};

/// A graph job's fingerprint: the factor and every node's result.
std::uint64_t graph_digest(const MatrixD& work, const sched::GraphResult& gr) {
  std::uint64_t h = matrix_digest(work);
  for (const KernelResult& n : gr.nodes) h = combine_digest(h, result_digest(n));
  return combine_digest(h, gr.ok ? 1 : 0);
}

struct Dag {
  Checker checker;  // first in, last out: hooks report to it
  MixTemplates mix;
  MatrixD spd;
  std::uint64_t graph_expect = 0;
  std::vector<std::vector<int>> jobs;  ///< per tenant: -1 = graph, else template
  fabric::SimExecutor sim;
  TimingExecutor timing{sim};
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<sched::GraphScheduler> sched;
  std::vector<sched::TenantId> tenants;
};

sched::FactorGraph make_graph(const Dag& st, std::uint64_t op) {
  sched::FactorGraph fg =
      sched::build_cholesky_graph(arch::lac_4x4_dp(), 2.0, st.spd.view(), kGraphBlock);
  // Tag every node with the job's op id, so the decorator's execute spans
  // join the job's trace.
  for (std::size_t id = 0; id < fg.graph.size(); ++id) {
    sched::GraphNode& node = fg.graph.node(id);
    node.make = [make = std::move(node.make), tag = op_tag(op)] {
      KernelRequest req = make();
      req.tag = tag;
      return req;
    };
  }
  return fg;
}

std::unique_ptr<Dag> dag_setup(const Options& opt) {
  auto st = std::make_unique<Dag>();
  st->mix.build(opt.seed * 7901, st->checker);
  st->spd = random_spd(kGraphN, opt.seed * 31 + 5);
  Rng rng(opt.seed ^ 0xda9ull);
  st->jobs.resize(std::size(kWeights));
  for (auto& seq : st->jobs)
    for (int i = 0; i < 64; ++i)
      seq.push_back(rng.uniform() < kGraphShare
                        ? -1
                        : static_cast<int>(rng.next_index(st->mix.reqs.size())));

  // The reference factorization: one worker, then checked numerically.
  {
    ThreadPool one(1);
    sched::SchedulerOptions so;
    so.workers = 1;
    sched::GraphScheduler serial(st->sim, so, &one);
    sched::FactorGraph fg = make_graph(*st, 0);
    const sched::GraphResult gr = serial.submit(0, std::move(fg.graph)).get();
    st->graph_expect = graph_digest(*fg.work, gr);
    MatrixD l(kGraphN, kGraphN);
    sched::extract_lower(fg, l.view());
    double num = 0.0, den = 0.0;
    for (index_t i = 0; i < kGraphN; ++i)
      for (index_t j = 0; j < kGraphN; ++j) {
        double llt = 0.0;
        for (index_t k = 0; k < kGraphN; ++k) llt += l(i, k) * l(j, k);
        num += (llt - st->spd(i, j)) * (llt - st->spd(i, j));
        den += st->spd(i, j) * st->spd(i, j);
      }
    st->checker.verdict(gr.ok && std::sqrt(num) <= 1e-9 * std::sqrt(den),
                        "tenant_dag: graph Cholesky factor differs from the reference");
  }

  st->pool = std::make_unique<ThreadPool>(pool_width());
  sched::SchedulerOptions so;
  so.workers = pool_width();
  so.queue_capacity = kQueueCapacity;
  st->sched = std::make_unique<sched::GraphScheduler>(st->timing, so, st->pool.get());
  for (std::size_t t = 0; t < std::size(kWeights); ++t) {
    sched::TenantConfig tc;
    tc.name = "w" + std::to_string(static_cast<int>(kWeights[t]));
    tc.weight = kWeights[t];
    st->tenants.push_back(st->sched->add_tenant(tc));
  }
  // Warm-up at full width: every template and one graph per tenant.
  std::vector<std::future<KernelResult>> singles;
  std::vector<std::pair<std::future<sched::GraphResult>, std::shared_ptr<MatrixD>>> graphs;
  for (sched::TenantId tid : st->tenants) {
    sched::FactorGraph fg = make_graph(*st, 0);
    graphs.emplace_back(st->sched->submit(tid, std::move(fg.graph)), fg.work);
    for (const KernelRequest& req : st->mix.reqs) singles.push_back(st->sched->submit(tid, req));
  }
  for (std::size_t i = 0; i < singles.size(); ++i)
    st->checker.check(singles[i].get(), st->mix.expect[i % st->mix.reqs.size()],
                      "tenant_dag warm-up");
  for (auto& [fut, work] : graphs)
    st->checker.verdict(graph_digest(*work, fut.get()) == st->graph_expect,
                        "tenant_dag warm-up graph differs from its fingerprint");
  st->sched->drain();
  st->timing.collect();
  return st;
}

struct DagSlot {
  std::uint64_t s0 = 0, s1 = 0, done = 0;
  ExecSpan exec;  ///< first execute start, last execute end
  std::size_t tenant = 0;
  bool graph = false, ok = false;
  double speedup = 0.0;
};

struct DagPassResult {
  Samples sojourn_ms;
  std::uint64_t jobs = 0, ok = 0;
  double window_s = 0.0;
  double exec_busy_ns = 0.0;
  Samples submit_us, queue_wait_us, complete_us, speedup;
  KindNs kind_ns;
  std::vector<double> service;  ///< cycles per tenant over the window
  HistPoint admit, ready;
  /// Completions per second and host ns per simulated MAC in each kSliceS
  /// slice of the window, reported at their fast end (the 90th percentile
  /// rate, the 10th percentile ns/MAC). With four busy threads the loaded
  /// state's depth varies from run to run (neighbours may hit any of them);
  /// the fast end repeats.
  std::vector<double> slice_rate, slice_good, slice_ns_per_mac;
};

constexpr double kSliceS = 0.5;

DagPassResult dag_pass(Dag& st, double seconds, SpanRecorder* rec, std::uint64_t& op_id) {
  DagPassResult pr;
  // Jobs in flight by index. A finished job's slot is folded into the totals
  // and erased, so memory stays flat however many jobs a run completes; map
  // nodes keep their addresses for the hooks.
  std::map<std::size_t, DagSlot> slots;
  std::size_t submitted = 0;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::size_t> finished;  // slot indices, guarded by mu
  std::vector<std::size_t> next_job(st.tenants.size(), 0);
  const std::uint64_t op_base = op_id + 1;

  auto submit_job = [&](std::size_t t) {
    const std::vector<int>& seq = st.jobs[t];
    const int job = seq[next_job[t]++ % seq.size()];
    const std::size_t idx = submitted++;
    const std::uint64_t op = op_base + idx;
    DagSlot& slot = slots[idx];
    slot.tenant = t;
    slot.graph = job < 0;
    auto notify = [&mu, &cv, &finished, idx] {
      std::lock_guard<std::mutex> lock(mu);
      finished.push_back(idx);
      cv.notify_one();
    };
    if (slot.graph) {
      sched::FactorGraph fg = make_graph(st, op);
      slot.s0 = now_ns();
      st.sched->submit(st.tenants[t], std::move(fg.graph),
                       [&slot, &st, work = fg.work, notify](const sched::GraphResult& gr) {
                         slot.done = now_ns();
                         slot.ok = st.checker.verdict(
                             graph_digest(*work, gr) == st.graph_expect,
                             "tenant_dag graph differs from its fingerprint");
                         slot.speedup = gr.speedup;
                         notify();
                       });
    } else {
      KernelRequest req = st.mix.reqs[static_cast<std::size_t>(job)];
      req.tag = op_tag(op);
      const std::uint64_t expect = st.mix.expect[static_cast<std::size_t>(job)];
      slot.s0 = now_ns();
      st.sched->submit(st.tenants[t], std::move(req),
                       [&slot, &st, expect, notify](const KernelResult& r) {
                         slot.done = now_ns();
                         slot.ok = st.checker.check(r, expect, "tenant_dag");
                         notify();
                       });
    }
    slot.s1 = now_ns();
  };

  std::vector<double> cycles0;
  for (sched::TenantId tid : st.tenants)
    cycles0.push_back(st.sched->tenant_stats(tid).cycles.value());
  const HistPoint admit0 = histogram("lac.sched.admit_wait_us");
  const HistPoint ready0 = histogram("lac.sched.ready_wait_us");

  const std::uint64_t t0 = now_ns();
  const std::uint64_t deadline = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t window_end = UINT64_MAX;  // known once the window closes
  struct Slice {
    double done = 0.0, good = 0.0, busy_ns = 0.0, macs = 0.0;
  };
  std::vector<Slice> slices;  // per kSliceS of the window
  auto slice_at = [&](std::uint64_t t) -> Slice& {
    const auto k = static_cast<std::size_t>(to_s(t - t0) / kSliceS);
    if (k >= slices.size()) slices.resize(k + 1);
    return slices[k];
  };
  ExecTotals et;
  // Fold a finished job into the totals. Its executions ended before its
  // completion hook ran, so the decorator logs collected after the hook
  // hold all of them.
  auto retire = [&](std::size_t idx) {
    const auto node = slots.find(idx);
    const DagSlot& s = node->second;
    const std::uint64_t op = op_base + idx;
    if (s.done <= window_end) {  // jobs completing inside the window
      ++pr.jobs;
      if (s.ok) ++pr.ok;
      pr.sojourn_ms.add(to_ms(s.done - s.s0));
      Slice& slice = slice_at(s.done);
      slice.done += 1.0;
      if (s.ok) slice.good += 1.0;
    }
    pr.submit_us.add(to_us(s.s1 - s.s0));
    if (s.graph) pr.speedup.add(s.speedup);
    const ExecSpan& e = s.exec;
    if (e.last_end != 0) {
      pr.queue_wait_us.add(e.first_start > s.s1 ? to_us(e.first_start - s.s1) : 0.0);
      pr.complete_us.add(s.done > e.last_end ? to_us(s.done - e.last_end) : 0.0);
      if (rec) {
        rec->add_with_id(0, op, SpanKind::Op, s.s0, s.done);
        rec->add(op, SpanKind::SchedSubmit, s.s0, s.s1);
        if (e.first_start > s.s1) rec->add(op, SpanKind::SchedWait, s.s1, e.first_start);
        rec->add_with_id(kExecContext, op, SpanKind::SchedRun, e.first_start, e.last_end);
        if (s.done > e.last_end) rec->add(op, SpanKind::PoolComplete, e.last_end, s.done);
      }
    }
    slots.erase(node);
  };
  // Collect the decorator's logs into the slots, then retire `done`.
  auto fold = [&](const std::vector<std::size_t>& done) {
    const std::vector<ExecRec> log = st.timing.collect();
    for (const ExecRec& e : log) {
      Slice& slice = slice_at(e.end);
      slice.busy_ns += static_cast<double>(e.end - e.start);
      slice.macs += static_cast<double>(e.macs);
    }
    et.add(log);
    for (const auto& [op, e] : et.ops) {
      if (op < op_base) continue;
      const auto it = slots.find(op - op_base);
      if (it == slots.end()) continue;
      ExecSpan& x = it->second.exec;
      x.first_start = std::min(x.first_start, e.first_start);
      x.last_end = std::max(x.last_end, e.last_end);
    }
    et.ops.clear();
    for (std::size_t idx : done) retire(idx);
  };

  for (std::size_t k = 0; k < kOutstandingPerTenant; ++k)
    for (std::size_t t = 0; t < st.tenants.size(); ++t) submit_job(t);
  std::uint64_t next_collect = t0;
  std::vector<std::size_t> batch, to_retire;
  while (now_ns() < deadline) {
    if (now_ns() >= next_collect) {
      fold(to_retire);
      to_retire.clear();
      next_collect += 100'000'000;
    }
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait_for(lock, std::chrono::milliseconds(5), [&] { return !finished.empty(); });
      batch.swap(finished);
    }
    for (std::size_t idx : batch) {
      to_retire.push_back(idx);
      if (now_ns() < deadline) submit_job(slots.at(idx).tenant);
    }
    batch.clear();
  }
  window_end = now_ns();
  pr.window_s = to_s(window_end - t0);
  for (std::size_t t = 0; t < st.tenants.size(); ++t)
    pr.service.push_back(
        (st.sched->tenant_stats(st.tenants[t]).cycles.value() - cycles0[t]) / kWeights[t]);
  st.sched->drain();
  const HistPoint admit1 = histogram("lac.sched.admit_wait_us");
  const HistPoint ready1 = histogram("lac.sched.ready_wait_us");
  pr.admit = {admit1.count - admit0.count, admit1.sum - admit0.sum};
  pr.ready = {ready1.count - ready0.count, ready1.sum - ready0.sum};

  {
    std::lock_guard<std::mutex> lock(mu);
    to_retire.insert(to_retire.end(), finished.begin(), finished.end());
  }
  fold(to_retire);
  if (!slots.empty()) throw std::logic_error("tenant_dag: jobs left after drain");
  pr.exec_busy_ns = et.busy_ns;
  pr.kind_ns = et.kind_ns;
  // Figures over the whole slices of the window (all of it when shorter
  // than one slice).
  const auto full = static_cast<std::size_t>(pr.window_s / kSliceS);
  const std::size_t nslices = std::max<std::size_t>(1, full);
  const double slice_s = full ? kSliceS : pr.window_s;
  slices.resize(std::max(nslices, slices.size()));
  for (std::size_t k = 0; k < nslices; ++k) {
    pr.slice_rate.push_back(slices[k].done / slice_s);
    pr.slice_good.push_back(slices[k].good / slice_s);
    if (slices[k].macs > 0.0) pr.slice_ns_per_mac.push_back(slices[k].busy_ns / slices[k].macs);
  }
  op_id += submitted;
  if (rec) rec->attribute();
  return pr;
}

double jain(const std::vector<double>& x) {
  double s = 0.0, s2 = 0.0;
  for (double v : x) {
    s += v;
    s2 += v * v;
  }
  return s2 > 0.0 ? s * s / (static_cast<double>(x.size()) * s2) : 0.0;
}

void tenant_dag(const Options& opt, Output& out) {
  std::vector<double> setup_s;
  auto st = set_up<Dag>([&] { return dag_setup(opt); }, setup_s);
  const Accuracy acc = accuracy(st->mix.reqs, st->mix.first);
  std::uint64_t op_id = 0;
  DagPassResult pr;
  if (!opt.trace) {
    pr = dag_pass(*st, opt.seconds, nullptr, op_id);
    Report& t = out.metrics;
    set_setup(t, out, setup_s);
    t.set("peak_rss_mb", peak_rss_mb(), 1);
    t.set("ops_per_s", quantile(pr.slice_rate, 0.9), pr.jobs);
    t.set("p50_ms", pr.sojourn_ms.pct(0.50), pr.sojourn_ms.count());
    t.set("p99_ms", pr.sojourn_ms.pct(0.99), pr.sojourn_ms.count());
    t.set("goodput_rps", quantile(pr.slice_good, 0.9), pr.ok);
    t.set("sim_ns_per_mac", quantile(pr.slice_ns_per_mac, 0.1), pr.jobs);
    set_accuracy_e2e(t, acc);
  } else {
    DagPassResult base = dag_pass(*st, opt.seconds / 2, nullptr, op_id);
    SpanRecorder rec;
    st->timing.set_recorder(&rec);
    {
      TracedPass pass(opt, out);
      pr = dag_pass(*st, opt.seconds / 2, &rec, op_id);
      pass.finish();
    }
    st->timing.set_recorder(nullptr);
    Report& t = out.metrics;
    set_span_layers(t, rec, out);
    pr.kind_ns.set(t);
    set_accuracy_layers(t, acc);
    t.set("pool.queue_wait_p50_us", pr.queue_wait_us.pct(0.50), pr.queue_wait_us.count());
    t.set("pool.queue_wait_p99_us", pr.queue_wait_us.pct(0.99), pr.queue_wait_us.count());
    t.set("pool.busy_share",
          ratio(pr.exec_busy_ns, st->pool->size() * pr.window_s * 1e9), pr.jobs);
    t.set("sched.admit_wait_us", ratio(pr.admit.sum, pr.admit.count), pr.admit.count);
    t.set("sched.ready_wait_us", ratio(pr.ready.sum, pr.ready.count), pr.ready.count);
    // Every graph job is the same graph, so its simulated speedup is one
    // value; the median returns it exactly (a mean of copies may not).
    t.set("sched.graph_speedup", pr.speedup.pct(0.5), pr.speedup.count());
    t.set("sched.fairness_jain", jain(pr.service), pr.service.size());
    set_overhead(t, base.sojourn_ms.mean(), pr.sojourn_ms.mean(), pr.sojourn_ms.count());
  }
  finish_checks(st->checker, out);
  std::ostringstream os;
  os << "{\"workers\": " << st->pool->size() << ", \"tenant_weights\": [1, 2, 4]"
     << ", \"outstanding_per_tenant\": " << kOutstandingPerTenant
     << ", \"queue_capacity\": " << kQueueCapacity << ", \"graph_share\": "
     << json_num(kGraphShare) << ", \"graph\": {\"n\": " << kGraphN
     << ", \"block\": " << kGraphBlock << "}, \"graph_speedup\": "
     << json_num(pr.speedup.pct(0.5)) << ", \"fairness_jain\": " << json_num(jain(pr.service))
     << ", \"peak_pending\": " << st->sched->peak_pending()
     << ", \"slices\": " << pr.slice_rate.size()
     << ", \"slice_ops_per_s_p10_p50_p90\": " << json_list(qs(pr.slice_rate, {0.1, 0.5, 0.9}))
     << ", \"slice_ns_per_mac_p10_p50_p90\": "
     << json_list(qs(pr.slice_ns_per_mac, {0.1, 0.5, 0.9})) << "}";
  out.record.emplace_back("workload", os.str());
}

}  // namespace

bool run_workload(const Options& opt, Output& out) {
  out.metrics = Report(opt.trace ? per_layer_metrics() : end_to_end_metrics());
  if (opt.workload == "sim_grid") sim_grid(opt, out);
  else if (opt.workload == "serve_open") serve_open(opt, out);
  else if (opt.workload == "explore_model") explore_model(opt, out);
  else if (opt.workload == "tenant_dag") tenant_dag(opt, out);
  else return false;
  return true;
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"ops_per_s", "1/s"},
      {"p50_ms", "ms"},
      {"p99_ms", "ms"},
      {"goodput_rps", "1/s"},
      {"sim_ns_per_mac", "ns/MAC"},
      {"fabric_utilization", "ratio"},
      {"model_cycle_err_pct", "%"},
      {"model_energy_err_pct", "%"},
  };
  return names;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = [] {
    std::vector<std::pair<std::string, std::string>> v = {
        {"fabric.validate_us", "us"},
        {"sim.run_us", "us"},
    };
    for (KernelKind k : fabric::registered_kernel_kinds())
      v.emplace_back("sim." + kind_key(k) + ".ns_per_mac", "ns/MAC");
    v.insert(v.end(), {
        {"sim.cycles", "cycles"},
        {"sim.mac_ops", "count"},
        {"sim.arena.core_hit_rate", "ratio"},
        {"stream_schedule.plan_hit_rate", "ratio"},
        {"power.energy_us", "us"},
        {"power.pj_per_mac", "pJ/MAC"},
        {"model.cost_us", "us"},
    });
    for (KernelKind k : fabric::registered_kernel_kinds())
      v.emplace_back("model." + kind_key(k) + ".cycle_err_pct", "%");
    v.insert(v.end(), {
        {"blas.reference_us", "us"},
        {"serving.cache.hit_us", "us"},
        {"serving.cache.miss_us", "us"},
        {"serving.cache.signature_us", "us"},
        {"serving.cache.hit_rate", "ratio"},
        {"serving.cache.entries", "count"},
        {"serving.submit_us", "us"},
        {"pool.queue_wait_p50_us", "us"},
        {"pool.queue_wait_p99_us", "us"},
        {"pool.complete_us", "us"},
        {"pool.busy_share", "ratio"},
        {"pool.steals", "count"},
        {"pool.serial_floor_rps", "1/s"},
        {"pool.goodput_over_serial", "ratio"},
        {"sched.submit_us", "us"},
        {"sched.admit_wait_us", "us"},
        {"sched.ready_wait_us", "us"},
        {"sched.graph_speedup", "ratio"},
        {"sched.fairness_jain", "ratio"},
        {"gen.late_p99_ms", "ms"},
        {"trace_overhead_pct", "%"},
        {"trace.unattributed_pct", "%"},
        {"self.fabric_pct", "%"},
        {"self.sim_pct", "%"},
        {"self.power_pct", "%"},
        {"self.model_pct", "%"},
        {"self.blas_pct", "%"},
        {"self.serving_pct", "%"},
        {"self.pool_pct", "%"},
        {"self.sched_pct", "%"},
        {"self.harness_pct", "%"},
    });
    return v;
  }();
  return names;
}

}  // namespace lacb
