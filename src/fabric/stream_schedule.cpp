#include "fabric/stream_schedule.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <unordered_map>

#include "obs/metrics.hpp"

namespace lac::fabric {
namespace {

/// Geometry key of one rank-1 sweep; every field a plan's addresses depend
/// on, nothing else (values stream through the plan unchanged).
struct PlanKey {
  int nr = 0;
  index_t rows = 0;
  index_t row0 = 0;
  index_t p_begin = 0;
  index_t p_end = 0;
  bool operator==(const PlanKey&) const = default;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& k) const {
    std::size_t h = static_cast<std::size_t>(k.nr);
    for (index_t f : {k.rows, k.row0, k.p_begin, k.p_end})
      h = h * 1099511628211u + static_cast<std::size_t>(f);
    return h;
  }
};

struct PlanMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& ff_steps;     ///< row-steps closed in steady state
  obs::Counter& exact_steps;  ///< row-steps stepped op by op

  static PlanMetrics& instance() {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    static PlanMetrics* m = new PlanMetrics{
        reg.counter("lac.fabric.schedule.plan_hits"),
        reg.counter("lac.fabric.schedule.plan_misses"),
        reg.counter("lac.fabric.schedule.ff_steps"),
        reg.counter("lac.fabric.schedule.exact_steps")};
    return *m;
  }
};

/// Thread-local plan memo: serving traffic repeats a handful of shapes, so
/// the same sweeps recur thousands of times per worker. Thread-local keeps
/// the lookup lock-free; the bound is a safety valve for shape sweeps (a
/// full memo restarts cold rather than growing without limit).
const Rank1Plan& rank1_plan(int nr, index_t rows, index_t row0, index_t p_begin,
                            index_t p_end) {
  static thread_local std::unordered_map<PlanKey, Rank1Plan, PlanKeyHash> cache;
  constexpr std::size_t kMaxPlans = 4096;
  PlanMetrics& metrics = PlanMetrics::instance();
  const PlanKey key{nr, rows, row0, p_begin, p_end};
  if (auto it = cache.find(key); it != cache.end()) {
    metrics.hits.add();
    return it->second;
  }
  metrics.misses.add();
  if (cache.size() >= kMaxPlans) cache.clear();
  Rank1Plan plan;
  const std::size_t steps = static_cast<std::size_t>(p_end - p_begin);
  plan.owner.reserve(steps);
  plan.a_addr.reserve(steps * static_cast<std::size_t>(nr));
  for (index_t p = p_begin; p < p_end; ++p) {
    plan.owner.push_back(static_cast<int>(p % nr));
    for (int r = 0; r < nr; ++r)
      plan.a_addr.push_back(mem_a_addr(row0 + r, p, rows, nr));
  }
  return cache.emplace(key, std::move(plan)).first->second;
}

// ---- rank-1 sweep: values apart from timing --------------------------------
//
// Row r of a sweep touches only PE(r, .) and row bus r, so each row runs on
// its own. A row steps op by op until it is in steady state:
//  - the row bus runs back to back: every MEM-A read is ready by the bus
//    slot it feeds, at each column's next use too;
//  - every MAC issue chain of the row advances one cycle per step: the
//    broadcast value and the MEM-B read are ready by the slot the chain
//    gives the next MAC (after the issue port and the accumulator free).
// Both carry over from one step to the next (a read costs at most a cycle
// of port time, a chain exactly one), so the rest of the sweep has a closed
// form, and the bulk primitives below equal the single ops they replace.
// The fma chains run apart in a tight loop in the same p-order, so the
// values are bit-identical.
//
// Exactness guard: a closed form adds k*d where the op-by-op loop adds d k
// times. Both are exact, hence equal, when every time, busy count and
// increment is a multiple of 2^-8 (ports up to 256) below 2^36 and
// k < 2^31: every sum then stays below 2^37, within 45 significant bits.
// Other sweeps (bandwidths like 0.3 words/cycle, 3-port stores) step
// exactly to the end.

constexpr double kGridScale = 256.0;
constexpr double kGridLimit = 0x1p44;  // 2^36 on the 2^-8 grid
constexpr index_t kMaxJump = index_t{1} << 31;

bool on_grid(double x) {
  const double y = x * kGridScale;
  return std::abs(y) < kGridLimit &&
         y == static_cast<double>(static_cast<std::int64_t>(y));
}

bool on_grid(const sim::Resource& res) {
  return on_grid(res.next_free()) && on_grid(res.busy_cycles());
}

/// One rank1_update call, as the row sweeps see it.
struct Sweep {
  int parity;
  index_t a_base;
  index_t slot;
  index_t steps;
  sim::time_t_ gate;
  bool negate;
  const Rank1Plan& plan;
};

/// Row-steps from step s until MEM-A column `o` is read next.
index_t steps_to_use(const Sweep& w, index_t s, int o, int nr) {
  return (o - w.plan.owner[static_cast<std::size_t>(s)] + nr) % nr;
}

/// Is row r in steady state before step s (conditions above)?
bool row_steady(const sim::Core& core, const Sweep& w, int r, index_t s) {
  const int nr = core.nr();
  const sim::time_t_ bus = core.row_bus(r).next_free();
  const sim::time_t_ arrive = bus + core.config().bus_latency;
  for (int c = 0; c < nr; ++c) {
    const sim::Pe& pe = core.pe(r, c);
    // The slot the row's next MAC gets once its operands are in.
    const sim::time_t_ slot =
        std::max({pe.mac.issue_port_free(), pe.mac.acc_chain_free(w.parity), 0.0});
    if (slot < arrive || std::max(w.gate, pe.mem_b.port().next_free()) + 1.0 > slot)
      return false;
  }
  for (int o = 0; o < nr; ++o) {
    const index_t d = steps_to_use(w, s, o, nr);
    if (d < w.steps - s &&
        std::max(w.gate, core.pe(r, o).mem_a.port().next_free()) + 1.0 > bus + d)
      return false;
  }
  return true;
}

/// Are row r's resources and accumulator chains on the exactness grid?
bool row_on_grid(const sim::Core& core, const Sweep& w, int r) {
  if (!on_grid(core.row_bus(r))) return false;
  for (int c = 0; c < core.nr(); ++c) {
    const sim::Pe& pe = core.pe(r, c);
    if (!on_grid(pe.mem_a.port()) || !on_grid(pe.mem_b.port()) ||
        !on_grid(pe.mac.issue_port()) || !on_grid(pe.mac.acc_chain_free(w.parity)))
      return false;
  }
  return true;
}

/// acc[c] = fma(a[s], b[c][s], acc[c]) for s in [0, k): each accumulator
/// keeps its p-order; the NR chains are independent and interleave.
/// Always inlined, so the chains compile inside the FMA clone below.
template <int NR>
[[gnu::always_inline]] inline void fma_chains(const double* a, const double* const* b, double* acc, index_t k) {
  double x[NR];
  for (int c = 0; c < NR; ++c) x[c] = acc[c];
  for (index_t s = 0; s < k; ++s)
    for (int c = 0; c < NR; ++c) x[c] = std::fma(a[s], b[c][s], x[c]);
  for (int c = 0; c < NR; ++c) acc[c] = x[c];
}

LAC_FMA_DISPATCH
void fma_chains(const double* a, const double* const* b, double* acc, index_t k,
                int nr) {
  switch (nr) {
    case 4: return fma_chains<4>(a, b, acc, k);
    case 8: return fma_chains<8>(a, b, acc, k);
    default:
      for (int c = 0; c < nr; ++c)
        for (index_t s = 0; s < k; ++s) acc[c] = std::fma(a[s], b[c][s], acc[c]);
  }
}

/// Close steps [s, steps) of row r, which is in steady state.
void fast_forward_row(sim::Core& core, const Sweep& w, int r, index_t s) {
  const int nr = core.nr();
  const index_t k = w.steps - s;
  // Timing: each MEM-A column's reads, the bus, MEM-B and the MAC chains.
  sim::time_t_ first_ready = 0.0;
  for (int o = 0; o < nr; ++o) {
    const index_t d = steps_to_use(w, s, o, nr);
    if (d >= k) continue;
    const sim::time_t_ ready = core.pe(r, o).mem_a.read_n(w.gate, (k - d + nr - 1) / nr);
    if (d == 0) first_ready = ready;
  }
  core.broadcast_row_n(r, first_ready, k);
  for (int c = 0; c < nr; ++c) {
    sim::Pe& pe = core.pe(r, c);
    pe.mem_b.read_n(w.gate, k);
    pe.mac.mac_chain_n(w.parity, k);
  }

  // Values: the broadcast operand of each step, then the fma chains (the
  // thread-local buffers only ever grow).
  static thread_local std::vector<double> a, acc;
  static thread_local std::vector<const double*> b;
  a.resize(static_cast<std::size_t>(k));
  acc.resize(static_cast<std::size_t>(nr));
  b.resize(static_cast<std::size_t>(nr));
  for (index_t j = 0; j < k; ++j) {
    const std::size_t step = static_cast<std::size_t>(s + j);
    const double v = core.pe(r, w.plan.owner[step])
                         .mem_a.peek(w.a_base + w.plan.a_addr[step * nr + r]);
    a[static_cast<std::size_t>(j)] = w.negate ? -v : v;
  }
  for (int c = 0; c < nr; ++c) {
    const sim::Pe& pe = core.pe(r, c);
    b[static_cast<std::size_t>(c)] = pe.mem_b.data() + w.slot + s;
    acc[static_cast<std::size_t>(c)] = pe.mac.acc_value(w.parity);
  }
  fma_chains(a.data(), b.data(), acc.data(), k, nr);
  for (int c = 0; c < nr; ++c)
    core.pe(r, c).mac.set_acc_value(w.parity, acc[static_cast<std::size_t>(c)]);
}

/// Fewest row-steps left for a steady-state check to pay off: short sweeps
/// (TRSM and CHIP_GEMM run nr-step ones) skip the guard altogether.
index_t min_jump(int nr) { return 2 * static_cast<index_t>(nr); }

/// Run every row of sweep `w`; returns the row-steps fast-forwarded.
LAC_FMA_DISPATCH
index_t sweep(sim::Core& core, const Sweep& w) {
  const int nr = core.nr();
  const bool try_ff = w.steps >= min_jump(nr) && w.steps < kMaxJump &&
                      on_grid(w.gate) && on_grid(1.0 / core.pe(0, 0).mem_a.ports()) &&
                      on_grid(1.0 / core.pe(0, 0).mem_b.ports());
  index_t ff = 0;
  for (int r = 0; r < nr; ++r) {
    bool row_try = try_ff;
    index_t s = 0;
    for (; s < w.steps; ++s) {
      // Check early (most rows settle within a step or two) and then once
      // per owner-column cycle; a row off the grid stays exact.
      if (row_try && (s < 4 || s % nr == 0) && w.steps - s >= min_jump(nr) &&
          row_steady(core, w, r, s)) {
        if (row_on_grid(core, w, r)) break;
        row_try = false;
      }
      const std::size_t step = static_cast<std::size_t>(s);
      sim::TimedVal av = core.pe(r, w.plan.owner[step])
                             .mem_a.read(w.a_base + w.plan.a_addr[step * nr + r], w.gate);
      if (w.negate) av.v = -av.v;
      const sim::TimedVal a_bcast = core.broadcast_row(r, av);
      for (int c = 0; c < nr; ++c) {
        sim::Pe& pe = core.pe(r, c);
        const sim::TimedVal bv = pe.mem_b.read(w.slot + s, w.gate);
        pe.mac.mac_into_acc(w.parity, a_bcast, bv);
      }
    }
    if (s < w.steps) {
      fast_forward_row(core, w, r, s);
      ff += w.steps - s;
    }
  }
  return ff;
}

}  // namespace

sim::time_t_ StreamSchedule::dma(double words) {
  cursor_ = core_.dma(words, cursor_);
  return cursor_;
}

sim::time_t_ StreamSchedule::dma_after(double words, sim::time_t_ earliest) {
  cursor_ = core_.dma(words, std::max(cursor_, earliest));
  return cursor_;
}

void StreamSchedule::poke_resident(ConstViewD a, index_t base) {
  const int nr = core_.nr();
  const index_t rows = a.rows();
  const index_t cols = a.cols();
  assert(rows % nr == 0);
  for (index_t p = 0; p < cols; ++p)
    for (index_t i = 0; i < rows; ++i)
      core_.pe(static_cast<int>(i % nr), static_cast<int>(p % nr))
          .mem_a.poke(base + mem_a_addr(i, p, rows, nr), a(i, p));
}

sim::time_t_ StreamSchedule::stage_resident(ConstViewD a, index_t base) {
  poke_resident(a, base);
  return dma(static_cast<double>(a.rows()) * a.cols());
}

sim::time_t_ StreamSchedule::stage_resident_lower(ConstViewD l) {
  const int nr = core_.nr();
  const index_t n = l.rows();
  assert(l.cols() == n && n % nr == 0);
  for (index_t p = 0; p < n; ++p)
    for (index_t i = p; i < n; ++i)
      core_.pe(static_cast<int>(i % nr), static_cast<int>(p % nr))
          .mem_a.poke(mem_a_addr(i, p, n, nr), l(i, p));
  return dma(static_cast<double>(n) * (n + 1) / 2);
}

sim::time_t_ StreamSchedule::stage_panel(ConstViewD a) {
  const int nr = core_.nr();
  const index_t k = a.rows();
  const index_t cols = a.cols();
  assert(cols <= nr);
  for (index_t i = 0; i < k; ++i)
    for (index_t j = 0; j < cols; ++j)
      core_.pe(static_cast<int>(i % nr), static_cast<int>(j))
          .mem_a.poke(i / nr, a(i, j));
  return dma(static_cast<double>(k) * cols);
}

void StreamSchedule::rank1_update(int parity, index_t a_base, index_t rows,
                                  index_t row0, index_t p_begin, index_t p_end,
                                  index_t slot, sim::time_t_ gate, bool negate) {
  // Replay the cached SoA plan: owner columns and MEM-A addresses are pure
  // geometry, so repeat shapes skip the address derivation entirely.
  const Sweep w{parity, a_base, slot, p_end - p_begin, gate, negate,
                rank1_plan(core_.nr(), rows, row0, p_begin, p_end)};
  const index_t ff = sweep(core_, w);
  PlanMetrics& metrics = PlanMetrics::instance();
  metrics.ff_steps.add(static_cast<std::uint64_t>(ff));
  metrics.exact_steps.add(static_cast<std::uint64_t>(w.steps * core_.nr() - ff));
}

}  // namespace lac::fabric
