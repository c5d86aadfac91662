#include "fabric/stream_schedule.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <unordered_map>

#include "obs/metrics.hpp"

namespace lac::fabric {
namespace {

struct PlanKeyHash {
  std::size_t operator()(const Rank1PlanKey& k) const {
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
  obs::Counter& exact_steps;  ///< row-steps stepped exactly

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
/// full memo restarts cold rather than growing without limit). `hit`
/// reports whether the plan was cached.
std::shared_ptr<const Rank1Plan> rank1_plan(const Rank1PlanKey& key, bool& hit) {
  static thread_local std::unordered_map<Rank1PlanKey, std::shared_ptr<const Rank1Plan>,
                                         PlanKeyHash>
      cache;
  constexpr std::size_t kMaxPlans = 4096;
  if (auto it = cache.find(key); it != cache.end()) {
    hit = true;
    return it->second;
  }
  hit = false;
  if (cache.size() >= kMaxPlans) cache.clear();
  // lint-allow: hot-alloc (cache miss only: one plan per new sweep
  // geometry, replayed from the cache afterwards)
  auto plan = std::make_shared<Rank1Plan>();
  const int nr = key.nr;
  const std::size_t steps = static_cast<std::size_t>(key.p_end - key.p_begin);
  plan->owner.reserve(steps);
  plan->a_addr.reserve(steps * static_cast<std::size_t>(nr));
  plan->reads.assign(static_cast<std::size_t>(nr), 0);
  for (index_t p = key.p_begin; p < key.p_end; ++p) {
    plan->owner.push_back(static_cast<int>(p % nr));
    ++plan->reads[static_cast<std::size_t>(p % nr)];
    for (int r = 0; r < nr; ++r)
      plan->a_addr.push_back(mem_a_addr(key.row0 + r, p, key.rows, nr));
  }
  cache.emplace(key, plan);
  return plan;
}

// ---- rank-1 sweep: values apart from timing --------------------------------
//
// Row r of a sweep touches only PE(r, .) and row bus r. The timing goes
// first, in place on the core's MeshLanes, one step at a time for every
// row (step_row): the MEM-A read and the row-bus slot, then the row's PE
// lanes together as SIMD vectors (step_lanes). Each time is the per-op
// path's IEEE max/add of the same operands in the same order, so the
// stepper is exact for any times, with no guard. The values follow, per
// row, as nr fma chains in p-order: the fma sequence of the per-op MACs.
//
// A row of a long sweep steps until it is in steady state:
//  - the row bus runs back to back: every MEM-A read is ready by the bus
//    slot it feeds, at each column's next use too;
//  - every MAC issue chain of the row advances one cycle per step: the
//    broadcast value and the MEM-B read are ready by the slot the chain
//    gives the next MAC (after the issue port and the accumulator free).
// Both carry over from one step to the next (a read costs at most a cycle
// of port time, a chain exactly one), so the rest of the row has a closed
// form (fast_forward_row).
//
// Exactness guard: a closed form adds k*d where stepping adds d k times.
// Both are exact, hence equal, when every time, busy count and increment
// is a multiple of 2^-8 (ports up to 256) below 2^36 and k < 2^31: every
// sum then stays below 2^37, within 45 significant bits. Other rows
// (bandwidths like 0.3 words/cycle, 3-port stores) and sweeps too short
// for the check to pay off (TRSM's and CHIP_GEMM's nr steps) are stepped
// to the end.

constexpr double kGridScale = 256.0;
constexpr double kGridLimit = 0x1p44;  // 2^36 on the 2^-8 grid
constexpr index_t kMaxJump = index_t{1} << 31;

bool on_grid(double x) {
  const double y = x * kGridScale;
  return std::abs(y) < kGridLimit &&
         y == static_cast<double>(static_cast<std::int64_t>(y));
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

/// The MeshLanes fields a sweep steps (PE lanes r * nr + c, row buses by
/// r, accumulator `parity` of each PE) and the per-op constants.
struct SweepLanes {
  double* a_free;  ///< MEM-A ports
  double* b_free;  ///< MEM-B ports
  double* m_free;  ///< MAC issue ports
  double* ready;   ///< accumulator `parity`
  double* chain;
  double* bus_free;
  double* bus_busy;
  double a_slot;  ///< port time per MEM-A access (1/ports)
  double b_slot;
  double bus_latency;
  double depth;  ///< MAC pipeline depth p
};

SweepLanes sweep_lanes(sim::Core& core, int parity) {
  using sim::MeshLanes;
  MeshLanes& m = core.lanes();
  assert(parity >= 0 && parity < m.accumulators);
  const sim::Pe& pe = core.pe(0, 0);
  return {m.word(MeshLanes::kMemAFree),
          m.word(MeshLanes::kMemBFree),
          m.word(MeshLanes::kIssueFree),
          m.word(MeshLanes::acc_word(parity, MeshLanes::kAccReady)),
          m.word(MeshLanes::acc_word(parity, MeshLanes::kAccChain)),
          m.row_bus.next_free.data(),
          m.row_bus.busy.data(),
          pe.mem_a.access_time(),
          pe.mem_b.access_time(),
          static_cast<double>(core.config().bus_latency),
          pe.mac.depth()};
}

/// Row-steps from step s until MEM-A column `o` is read next.
index_t steps_to_use(const Sweep& w, index_t s, int o, int nr) {
  const int d = o - w.plan.owner[static_cast<std::size_t>(s)];
  return d < 0 ? d + nr : d;
}

/// W lanes as one SIMD vector (GCC vector extension: AVX in the FMA
/// clone, SSE2 halves in the default one); one lane is a plain double.
typedef double Lanes4 __attribute__((vector_size(4 * sizeof(double))));
template <int W> struct LaneVec;
template <> struct LaneVec<1> { using type = double; };
template <> struct LaneVec<4> { using type = Lanes4; };

/// The lane half of a row step: for each of the row's PEs, LocalStore::
/// read on MEM-B (acquire(gate, b_slot), ready a cycle after the start),
/// then MacPipeline::mac_into_acc of the broadcast value that arrives at
/// `arrive` (std::max({a.ready, b.ready, chain_free, 0.0}), which folds
/// left, then the issue port's claim of one cycle). W lanes at a time:
/// std::max(x, y) is x < y ? y : x lane by lane, and the scalars splat
/// exactly (no arithmetic on them). A specialized mesh width (NR 4 or 8)
/// steps four lanes at a time, any other one lane at a time.
template <int NR>
[[gnu::always_inline]] inline void step_lanes(int nr, double arrive, double gate,
                                              double b_slot, double depth, double* b_free,
                                              double* m_free, double* ready, double* chain) {
  constexpr int W = NR == 0 ? 1 : 4;
  using V = typename LaneVec<W>::type;
  V gate_v{};
  V arrive_v{};
  if constexpr (W == 1) {
    gate_v = gate;
    arrive_v = arrive;
  } else {
    for (int i = 0; i < W; ++i) {
      gate_v[i] = gate;
      arrive_v[i] = arrive;
    }
  }
  const V zero{};
  const int n = NR == 0 ? nr : NR;
  for (int c = 0; c < n; c += W) {
    V bf, mf, ch;
    std::memcpy(&bf, b_free + c, sizeof(V));
    std::memcpy(&mf, m_free + c, sizeof(V));
    std::memcpy(&ch, chain + c, sizeof(V));
    const V b_start = gate_v < bf ? bf : gate_v;
    const V b_ready = b_start + 1.0;
    V operands = arrive_v < b_ready ? b_ready : arrive_v;
    operands = operands < ch ? ch : operands;
    operands = operands < zero ? zero : operands;
    const V issue = operands < mf ? mf : operands;
    bf = b_start + b_slot;
    mf = issue + 1.0;
    const V rd = issue + depth;
    ch = issue + 1.0;
    std::memcpy(b_free + c, &bf, sizeof(V));
    std::memcpy(m_free + c, &mf, sizeof(V));
    std::memcpy(ready + c, &rd, sizeof(V));
    std::memcpy(chain + c, &ch, sizeof(V));
  }
}

/// Step s of row r exactly, `o` being the step's owner column:
/// LocalStore::read on PE(r, o)'s MEM-A, Core::broadcast_row, then for
/// every column LocalStore::read on MEM-B and MacPipeline::mac_into_acc.
/// Each time is the same IEEE max/add of the same operands, in the same
/// order inside each std::max, so it matches the per-op path bit for bit
/// whatever the times. Op counts go in once per sweep (count_ops).
template <int NR>
[[gnu::always_inline]] inline void step_row(SweepLanes l, sim::time_t_ gate, int nr, int r,
                                            int o) {
  const std::size_t row = static_cast<std::size_t>(r) * static_cast<std::size_t>(nr);
  // MEM-A read: the port's acquire(gate, a_slot); ready a cycle later.
  const std::size_t a = row + static_cast<std::size_t>(o);
  const double a_start = std::max(gate, l.a_free[a]);
  l.a_free[a] = a_start + l.a_slot;
  // Row broadcast: the bus's acquire(ready, 1.0); arrives bus_latency later.
  const double bus_start = std::max(a_start + 1.0, l.bus_free[r]);
  l.bus_free[r] = bus_start + 1.0;
  l.bus_busy[r] += 1.0;
  step_lanes<NR>(nr, bus_start + l.bus_latency, gate, l.b_slot, l.depth, l.b_free + row,
                 l.m_free + row, l.ready + row, l.chain + row);
}

/// Is row r in steady state before step s (conditions above)?
bool row_steady(const SweepLanes& l, const Sweep& w, int nr, int r, index_t s) {
  const std::size_t row = static_cast<std::size_t>(r) * static_cast<std::size_t>(nr);
  const sim::time_t_ bus = l.bus_free[r];
  const sim::time_t_ arrive = bus + l.bus_latency;
  for (std::size_t i = row; i < row + static_cast<std::size_t>(nr); ++i) {
    // The slot the row's next MAC gets once its operands are in.
    const sim::time_t_ slot = std::max({l.m_free[i], l.chain[i], 0.0});
    if (slot < arrive || std::max(w.gate, l.b_free[i]) + 1.0 > slot) return false;
  }
  for (int o = 0; o < nr; ++o) {
    const index_t d = steps_to_use(w, s, o, nr);
    if (d < w.steps - s &&
        std::max(w.gate, l.a_free[row + static_cast<std::size_t>(o)]) + 1.0 > bus + d)
      return false;
  }
  return true;
}

/// Are row r's resources and accumulator chains on the exactness grid?
bool row_on_grid(const SweepLanes& l, int nr, int r) {
  if (!on_grid(l.bus_free[r]) || !on_grid(l.bus_busy[r])) return false;
  const std::size_t row = static_cast<std::size_t>(r) * static_cast<std::size_t>(nr);
  for (std::size_t i = row; i < row + static_cast<std::size_t>(nr); ++i)
    if (!on_grid(l.a_free[i]) || !on_grid(l.b_free[i]) || !on_grid(l.m_free[i]) ||
        !on_grid(l.chain[i]))
      return false;
  return true;
}

/// Close steps [s, steps) of row r, which is in steady state: each MEM-A
/// column's reads, the bus, MEM-B and the MAC chains run back to back, so
/// each resource takes its k slots at once (start + k * duration).
void fast_forward_row(const SweepLanes& l, const Sweep& w, int nr, int r, index_t s) {
  const index_t k = w.steps - s;
  const std::size_t row = static_cast<std::size_t>(r) * static_cast<std::size_t>(nr);
  // Column o is read at steps d, d + nr, ... < k: k / nr times, once more
  // when d < k % nr.
  const index_t rounds = k / nr;
  const index_t rest = k % nr;
  sim::time_t_ first_ready = 0.0;
  for (int o = 0; o < nr; ++o) {
    const index_t d = steps_to_use(w, s, o, nr);
    if (d >= k) continue;
    const std::size_t a = row + static_cast<std::size_t>(o);
    const sim::time_t_ start = std::max(w.gate, l.a_free[a]);
    const sim::time_t_ total = static_cast<sim::time_t_>(rounds + (d < rest ? 1 : 0)) * l.a_slot;
    l.a_free[a] = start + total;
    if (d == 0) first_ready = start + 1.0;
  }
  const sim::time_t_ steps = static_cast<sim::time_t_>(k);
  const sim::time_t_ bus_start = std::max(first_ready, l.bus_free[r]);
  l.bus_free[r] = bus_start + steps;
  l.bus_busy[r] += steps;
  for (std::size_t i = row; i < row + static_cast<std::size_t>(nr); ++i) {
    l.b_free[i] = std::max(w.gate, l.b_free[i]) + steps * l.b_slot;
    // The chain issues back to back from its first slot.
    const sim::time_t_ first = std::max(std::max(l.chain[i], 0.0), l.m_free[i]);
    l.m_free[i] = first + steps;
    const sim::time_t_ last = first + static_cast<sim::time_t_>(k - 1);
    l.ready[i] = last + l.depth;
    l.chain[i] = last + 1.0;
  }
}

/// Fewest row-steps left for a steady-state check to pay off: short sweeps
/// (TRSM and CHIP_GEMM run nr-step ones) skip the guard altogether.
index_t min_jump(int nr) { return 2 * static_cast<index_t>(nr); }

/// The timing of every row of sweep `w`; returns the row-steps
/// fast-forwarded.
template <int NR>
[[gnu::always_inline]] inline index_t sweep_timing(const SweepLanes& l, const Sweep& w,
                                                   int nr) {
  const bool try_ff = w.steps >= min_jump(nr) && w.steps < kMaxJump && on_grid(w.gate) &&
                      on_grid(l.a_slot) && on_grid(l.b_slot);
  // step_row takes the lanes and the gate by value: a store through a lane
  // pointer cannot alias them, so they stay in registers.
  const sim::time_t_ gate = w.gate;
  if (!try_ff) {
    for (index_t s = 0; s < w.steps; ++s) {
      const int o = w.plan.owner[static_cast<std::size_t>(s)];
      for (int r = 0; r < nr; ++r) step_row<NR>(l, gate, nr, r, o);
    }
    return 0;
  }
  // Long sweeps: a row checks for steady state early (most rows settle
  // within a step or two) and then once per owner-column cycle; a steady
  // row off the grid steps exactly to the end, a closed row steps no more.
  // The rows step together here too: stepping each row to its jump in
  // turn ran long sweeps about 2x slower on a 4-vCPU Xeon (each check then
  // reloads lanes just stored as vectors).
  enum : unsigned char { kCheck, kExact, kClosed };
  static thread_local std::vector<unsigned char> mode;
  mode.assign(static_cast<std::size_t>(nr), kCheck);
  int open = nr;  // rows not closed yet
  index_t ff = 0;
  for (index_t s = 0; s < w.steps && open > 0; ++s) {
    const bool check = (s < 4 || s % nr == 0) && w.steps - s >= min_jump(nr);
    const int o = w.plan.owner[static_cast<std::size_t>(s)];
    for (int r = 0; r < nr; ++r) {
      unsigned char& m = mode[static_cast<std::size_t>(r)];
      if (m == kClosed) continue;
      if (check && m == kCheck && row_steady(l, w, nr, r, s)) {
        if (row_on_grid(l, nr, r)) {
          fast_forward_row(l, w, nr, r, s);
          ff += w.steps - s;
          m = kClosed;
          --open;
          continue;
        }
        m = kExact;
      }
      step_row<NR>(l, gate, nr, r, o);
    }
  }
  return ff;
}

/// The op counts of a whole sweep, stepped or closed alike: per row, one
/// MEM-A read of column o per step o owns and one bus transfer per step;
/// per PE, one MEM-B read and one MAC per step.
[[gnu::always_inline]] inline void count_ops(sim::MeshLanes& m, const Sweep& w, int nr) {
  using sim::MeshLanes;
  const index_t k = w.steps;
  std::int64_t* a_ops = m.count(MeshLanes::kMemAOps);
  for (int r = 0; r < nr; ++r)
    for (int o = 0; o < nr; ++o) a_ops[r * nr + o] += w.plan.reads[static_cast<std::size_t>(o)];
  for (std::int64_t& ops : m.row_bus.ops) ops += k;
  std::int64_t* b_ops = m.count(MeshLanes::kMemBOps);
  std::int64_t* mac_ops = m.count(MeshLanes::kMacOps);
  for (std::size_t i = 0; i < m.pes; ++i) {
    b_ops[i] += k;
    mac_ops[i] += k;
  }
}

/// The values of sweep `w`, in place on the accumulator lanes: per row,
/// acc[c] = fma(a_s, b_c[s], acc[c]) over the steps in p-order, where a_s
/// is the step's broadcast operand -- each accumulator's fma sequence is
/// the per-op MACs'; the row's chains are independent and interleave.
template <int NR>
[[gnu::always_inline]] inline void sweep_values(sim::Core& core, const Sweep& w, int nr) {
  const std::size_t steps = static_cast<std::size_t>(w.steps);
  double* acc_lanes = core.lanes().word(sim::MeshLanes::acc_word(w.parity));
  for (int r = 0; r < nr; ++r) {
    double* acc = acc_lanes + static_cast<std::size_t>(r * nr);
    auto operand = [&](std::size_t s) {
      const std::size_t at = s * static_cast<std::size_t>(nr) + static_cast<std::size_t>(r);
      const double v = core.pe(r, w.plan.owner[s]).mem_a.peek(w.a_base + w.plan.a_addr[at]);
      return w.negate ? -v : v;
    };
    if constexpr (NR > 0) {
      const double* b[NR];
      double x[NR];
      for (int c = 0; c < NR; ++c) {
        b[c] = core.pe(r, c).mem_b.data() + w.slot;
        x[c] = acc[c];
      }
      for (std::size_t s = 0; s < steps; ++s) {
        const double a = operand(s);
        for (int c = 0; c < NR; ++c) x[c] = std::fma(a, b[c][s], x[c]);
      }
      for (int c = 0; c < NR; ++c) acc[c] = x[c];
    } else {
      for (std::size_t s = 0; s < steps; ++s) {
        const double a = operand(s);
        for (int c = 0; c < nr; ++c)
          acc[c] = std::fma(a, core.pe(r, c).mem_b.peek(w.slot + static_cast<index_t>(s)), acc[c]);
      }
    }
  }
}

template <int NR>
[[gnu::always_inline]] inline index_t sweep_nr(sim::Core& core, const Sweep& w) {
  const int nr = NR > 0 ? NR : core.nr();
  const index_t ff = sweep_timing<NR>(sweep_lanes(core, w.parity), w, nr);
  count_ops(core.lanes(), w, nr);
  sweep_values<NR>(core, w, nr);
  return ff;
}

/// Run sweep `w` on every row; returns the row-steps fast-forwarded.
LAC_FMA_DISPATCH
index_t sweep(sim::Core& core, const Sweep& w) {
  switch (core.nr()) {
    case 4: return sweep_nr<4>(core, w);
    case 8: return sweep_nr<8>(core, w);
    default: return sweep_nr<0>(core, w);
  }
}

}  // namespace

StreamSchedule::~StreamSchedule() {
  if (counts_.plan_hits + counts_.plan_misses == 0) return;
  PlanMetrics& metrics = PlanMetrics::instance();
  metrics.hits.add(counts_.plan_hits);
  metrics.misses.add(counts_.plan_misses);
  metrics.ff_steps.add(counts_.ff_steps);
  metrics.exact_steps.add(counts_.exact_steps);
}

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
  // Replay the SoA plan: owner columns and MEM-A addresses are pure
  // geometry, so repeat shapes skip the address derivation entirely. The
  // schedule keeps the last one (kernels run one shape back to back) and
  // asks the thread-local cache for any other.
  const Rank1PlanKey key{core_.nr(), rows, row0, p_begin, p_end};
  if (memo_plan_ && key == memo_key_) {
    ++counts_.plan_hits;
  } else {
    bool hit = false;
    memo_plan_ = rank1_plan(key, hit);
    memo_key_ = key;
    ++(hit ? counts_.plan_hits : counts_.plan_misses);
  }
  const Sweep w{parity, a_base, slot, p_end - p_begin, gate, negate, *memo_plan_};
  const index_t ff = sweep(core_, w);
  counts_.ff_steps += static_cast<std::uint64_t>(ff);
  counts_.exact_steps += static_cast<std::uint64_t>(w.steps * core_.nr() - ff);
}

}  // namespace lac::fabric
