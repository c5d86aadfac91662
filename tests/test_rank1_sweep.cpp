// Sweep-level differential test of StreamSchedule::rank1_update. Each case
// seeds an entry state on two identical cores through the public per-op API
// (port, bus and issue-port reservations at dyadic or arbitrary times,
// preloaded accumulators, random store contents), then runs the same sweep
// on one core through rank1_update -- which steps all rows' lanes at once
// and fast-forwards rows in steady state -- and on the other through a
// reference sweep built here from LocalStore::read, Core::broadcast_row and
// MacPipeline::mac_into_acc, one op at a time. The whole core state must
// match bit for bit after every sweep: every per-field lane array of the
// mesh (port and issue-port next_free, accumulator value/ready/chain_free,
// op counts), the row and column buses, the store and register-file
// counters and the finish time.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/presets.hpp"
#include "common/random.hpp"
#include "fabric/kernel_request.hpp"
#include "fabric/sim_executor.hpp"
#include "fabric/stream_schedule.hpp"
#include "obs/metrics.hpp"
#include "sim/core.hpp"

namespace lac::fabric {
namespace {

struct SweepArgs {
  int parity = 0;
  index_t a_base = 0;
  index_t rows = 0;
  index_t row0 = 0;
  index_t p_begin = 0;
  index_t p_end = 0;
  index_t slot = 0;
  sim::time_t_ gate = 0.0;
  bool negate = false;
};

/// The rank-1 sweep one op at a time, in step order (the schedule before
/// rows ran apart).
void reference_sweep(sim::Core& core, const SweepArgs& w) {
  const int nr = core.nr();
  for (index_t p = w.p_begin; p < w.p_end; ++p) {
    const int owner = static_cast<int>(p % nr);
    for (int r = 0; r < nr; ++r) {
      sim::TimedVal av = core.pe(r, owner).mem_a.read(
          w.a_base + mem_a_addr(w.row0 + r, p, w.rows, nr), w.gate);
      if (w.negate) av.v = -av.v;
      const sim::TimedVal a_bcast = core.broadcast_row(r, av);
      for (int c = 0; c < nr; ++c) {
        sim::Pe& pe = core.pe(r, c);
        const sim::TimedVal bv = pe.mem_b.read(w.slot + (p - w.p_begin), w.gate);
        pe.mac.mac_into_acc(w.parity, a_bcast, bv);
      }
    }
  }
}

void fast_sweep(StreamSchedule& sched, const SweepArgs& w) {
  sched.rank1_update(w.parity, w.a_base, w.rows, w.row0, w.p_begin, w.p_end, w.slot, w.gate,
                     w.negate);
}

/// A time for the entry state: on the 1/4 grid, or anywhere.
double entry_time(Rng& rng, bool dyadic, double hi) {
  if (dyadic) return static_cast<double>(rng.next_index(static_cast<std::uint64_t>(hi * 4))) / 4;
  return rng.uniform(0.0, hi);
}

/// Reserve resources and preload values identically on every core in `cores`.
void seed_entry_state(std::initializer_list<sim::Core*> cores, std::uint64_t seed,
                      bool dyadic, double horizon) {
  Rng rng(seed);
  sim::Core& first = **cores.begin();
  const int nr = first.nr();
  auto each = [&](auto&& op) {
    for (sim::Core* c : cores) op(*c);
  };
  for (int r = 0; r < nr; ++r) {
    const double t = entry_time(rng, dyadic, horizon);
    each([&](sim::Core& c) { c.broadcast_row(r, sim::at(0.0, t)); });
    for (int col = 0; col < nr; ++col) {
      for (index_t i = 0; i < first.pe(r, col).mem_a.size() && i < 256; ++i) {
        const double v = rng.uniform(-1.0, 1.0);
        each([&](sim::Core& c) { c.pe(r, col).mem_a.poke(i, v); });
      }
      for (index_t i = 0; i < first.pe(r, col).mem_b.size() && i < 128; ++i) {
        const double v = rng.uniform(-1.0, 1.0);
        each([&](sim::Core& c) { c.pe(r, col).mem_b.poke(i, v); });
      }
      const double ta = entry_time(rng, dyadic, horizon);
      const double tb = entry_time(rng, dyadic, horizon);
      const double ti = entry_time(rng, dyadic, horizon);
      const double occupy = static_cast<double>(1 + rng.next_index(3));
      const double acc0 = rng.uniform(-1.0, 1.0);
      const double acc1 = rng.uniform(-1.0, 1.0);
      const double t0 = entry_time(rng, dyadic, horizon);
      const double t1 = entry_time(rng, dyadic, horizon);
      each([&](sim::Core& c) {
        sim::Pe& pe = c.pe(r, col);
        pe.mem_a.read(0, ta);
        pe.mem_b.read(0, tb);
        pe.mac.occupy(ti, occupy);
        pe.mac.set_acc(0, sim::at(acc0, t0));
        pe.mac.set_acc(1, sim::at(acc1, t1));
      });
    }
  }
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_lane_array(const std::vector<double>& got, const std::vector<double>& want,
                            const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(bits(got[i]), bits(want[i])) << what << " lane " << i;
}

void expect_same_lane_array(const std::vector<std::int64_t>& got,
                            const std::vector<std::int64_t>& want, const std::string& what) {
  EXPECT_EQ(got, want) << what;
}

/// The whole core state, bit for bit.
void expect_same_core(const sim::Core& got, const sim::Core& want, const std::string& label) {
  const sim::MeshLanes& g = got.lanes();
  const sim::MeshLanes& w = want.lanes();
  // Every word field (ports, issue ports, accumulators) and count field.
  expect_same_lane_array(g.words, w.words, label + " words (field = index / PEs)");
  expect_same_lane_array(g.counts, w.counts, label + " counts");
  expect_same_lane_array(g.row_bus.next_free, w.row_bus.next_free, label + " row bus next_free");
  expect_same_lane_array(g.row_bus.busy, w.row_bus.busy, label + " row bus busy");
  expect_same_lane_array(g.row_bus.ops, w.row_bus.ops, label + " row bus ops");
  const int nr = want.nr();
  for (int i = 0; i < nr; ++i) {
    const sim::Resource& gc = got.col_bus(i);
    const sim::Resource& wc = want.col_bus(i);
    EXPECT_EQ(bits(gc.next_free()), bits(wc.next_free())) << label << " col bus " << i;
    EXPECT_EQ(bits(gc.busy_cycles()), bits(wc.busy_cycles())) << label << " col bus " << i;
    EXPECT_EQ(gc.ops(), wc.ops()) << label << " col bus " << i;
  }
  for (int r = 0; r < nr; ++r)
    for (int c = 0; c < nr; ++c) {
      const std::string pe = label + " PE(" + std::to_string(r) + "," + std::to_string(c) + ")";
      EXPECT_EQ(got.pe(r, c).mem_a.writes(), want.pe(r, c).mem_a.writes()) << pe;
      EXPECT_EQ(got.pe(r, c).mem_b.writes(), want.pe(r, c).mem_b.writes()) << pe;
      EXPECT_EQ(got.pe(r, c).rf.reads(), want.pe(r, c).rf.reads()) << pe;
      EXPECT_EQ(got.pe(r, c).rf.writes(), want.pe(r, c).rf.writes()) << pe;
    }
  const sim::Stats gs = got.stats();
  const sim::Stats ws = want.stats();
  EXPECT_EQ(gs.mem_a_reads, ws.mem_a_reads) << label;
  EXPECT_EQ(gs.mem_b_reads, ws.mem_b_reads) << label;
  EXPECT_EQ(gs.row_bus_xfers, ws.row_bus_xfers) << label;
  EXPECT_EQ(gs.col_bus_xfers, ws.col_bus_xfers) << label;
  EXPECT_EQ(gs.dma_words, ws.dma_words) << label;
  EXPECT_EQ(bits(got.finish_time()), bits(want.finish_time())) << label;
}

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}
std::uint64_t ff_steps() { return counter("lac.fabric.schedule.ff_steps"); }

/// A core config with the given mesh and store ports: nr 2 and 3 are the
/// 4x4 preset shrunk, nr 4 and 8 the presets.
arch::CoreConfig config(int nr, int a_ports, int b_ports) {
  arch::CoreConfig cfg = nr == 8 ? arch::lac_8x8_dp() : arch::lac_4x4_dp();
  cfg.nr = nr;
  cfg.pe.mem_a_ports = a_ports;
  cfg.pe.mem_b_ports = b_ports;
  return cfg;
}

std::string case_label(int nr, int a_ports, int b_ports, std::uint64_t seed) {
  return "nr " + std::to_string(nr) + " ports " + std::to_string(a_ports) + "/" +
         std::to_string(b_ports) + " seed " + std::to_string(seed);
}

TEST(Rank1Sweep, MatchesOpByOpReferenceFromRandomEntryStates) {
  int cases = 0;
  int all_ff = 0;      // every row jumped at its first step
  int partial_ff = 0;  // rows jumped after exact steps, or only some rows
  int no_ff = 0;       // no jump at all
  for (int nr : {2, 4, 8})
    for (int a_ports = 1; a_ports <= 3; ++a_ports)
      for (int b_ports = 1; b_ports <= 3; ++b_ports)
        for (std::uint64_t seed = 1; seed <= 24; ++seed) {
          const arch::CoreConfig cfg = config(nr, a_ports, b_ports);
          Rng rng(seed * 1000 + static_cast<std::uint64_t>(nr * 100 + a_ports * 10 + b_ports));
          const bool dyadic = rng.next_index(4) != 0;
          const double horizon = 20.0 + 200.0 * rng.uniform();

          SweepArgs w;
          w.parity = static_cast<int>(rng.next_index(2));
          const index_t blocks = 1 + static_cast<index_t>(rng.next_index(3));
          w.rows = blocks * nr;
          w.row0 = static_cast<index_t>(rng.next_index(static_cast<std::uint64_t>(blocks))) * nr;
          w.p_begin = static_cast<index_t>(rng.next_index(9));
          w.p_end = w.p_begin + 1 + static_cast<index_t>(rng.next_index(64));
          w.a_base = static_cast<index_t>(rng.next_index(4));
          w.slot = static_cast<index_t>(rng.next_index(16));
          w.negate = rng.next_index(2) == 1;
          // Gate ahead of every entry time, behind all of them, or between.
          switch (rng.next_index(3)) {
            case 0: w.gate = horizon + entry_time(rng, dyadic, 50.0); break;
            case 1: w.gate = 0.0; break;
            default: w.gate = entry_time(rng, dyadic, horizon); break;
          }

          sim::Core fast(cfg, 4.0, 2);
          sim::Core ref(cfg, 4.0, 2);
          seed_entry_state({&fast, &ref}, seed, dyadic, horizon);
          if (rng.next_index(2) == 0) {
            // A sweep into the other accumulator set first, as blocked
            // kernels run them back to back, so rows may enter in steady
            // state; then one row is disturbed: a store port held past the
            // slot its next read feeds (the row must step exactly), or an
            // accumulator reloaded late, as a late C block would be (the
            // chain starts late).
            SweepArgs prev = w;
            prev.parity ^= 1;
            reference_sweep(fast, prev);
            reference_sweep(ref, prev);
            const int r = static_cast<int>(rng.next_index(static_cast<std::uint64_t>(nr)));
            const int c = static_cast<int>(rng.next_index(static_cast<std::uint64_t>(nr)));
            const double late = fast.pe(r, c).mac.issue_port_free() +
                                static_cast<double>(rng.next_index(8));
            switch (rng.next_index(4)) {
              case 0: break;
              case 1:
                fast.pe(r, c).mem_a.read(0, late);
                ref.pe(r, c).mem_a.read(0, late);
                break;
              case 2:
                fast.pe(r, c).mem_b.read(0, late);
                ref.pe(r, c).mem_b.read(0, late);
                break;
              default:
                fast.pe(r, c).mac.set_acc(w.parity, sim::at(0.5, late + 1.0));
                ref.pe(r, c).mac.set_acc(w.parity, sim::at(0.5, late + 1.0));
            }
          }
          const std::uint64_t before = ff_steps();
          {
            StreamSchedule sched(fast);
            fast_sweep(sched, w);
          }
          reference_sweep(ref, w);
          const std::uint64_t ff = ff_steps() - before;
          const std::uint64_t row_steps = static_cast<std::uint64_t>((w.p_end - w.p_begin) * nr);
          if (ff == 0) ++no_ff;
          else if (ff == row_steps) ++all_ff;
          else ++partial_ff;
          ++cases;
          expect_same_core(fast, ref,
                           case_label(nr, a_ports, b_ports, seed) + " steps " +
                               std::to_string(w.p_end - w.p_begin) +
                               (dyadic ? " dyadic" : " arbitrary"));
        }
  EXPECT_EQ(cases, 3 * 3 * 3 * 24);
  // The differential covers all three regimes: a jump from the first step,
  // a jump after exact steps (or on some rows only), and no jump at all.
  EXPECT_GT(all_ff, 0);
  EXPECT_GT(partial_ff, 0);
  EXPECT_GT(no_ff, 0);
}

TEST(Rank1Sweep, ShortSweepsAtOffGridGatesStepExactly) {
  // 1-3-step sweeps never reach the fast-forward: every lane is stepped,
  // including 3-port stores (1/3-cycle port slots) and gates off any
  // dyadic grid. nr 3 takes the one-lane-at-a-time path.
  int cases = 0;
  for (int nr : {2, 3, 4, 8})
    for (int a_ports : {1, 3})
      for (int b_ports : {2, 3})
        for (std::uint64_t seed = 1; seed <= 12; ++seed) {
          const arch::CoreConfig cfg = config(nr, a_ports, b_ports);
          Rng rng(seed * 7919 + static_cast<std::uint64_t>(nr * 100 + a_ports * 10 + b_ports));
          const bool dyadic = rng.next_index(3) == 0;
          const double horizon = 10.0 + 100.0 * rng.uniform();
          sim::Core fast(cfg, 0.3, 2);
          sim::Core ref(cfg, 0.3, 2);
          seed_entry_state({&fast, &ref}, seed, dyadic, horizon);
          SweepArgs w;
          w.rows = 2 * nr;
          w.row0 = static_cast<index_t>(rng.next_index(2)) * nr;
          w.p_begin = static_cast<index_t>(rng.next_index(5));
          w.p_end = w.p_begin + 1 + static_cast<index_t>(rng.next_index(3));
          w.parity = static_cast<int>(rng.next_index(2));
          w.slot = static_cast<index_t>(rng.next_index(8));
          w.negate = rng.next_index(2) == 1;
          w.gate = rng.uniform(0.0, horizon) + 1.0 / 3.0;
          const std::uint64_t before = ff_steps();
          {
            StreamSchedule sched(fast);
            fast_sweep(sched, w);
          }
          reference_sweep(ref, w);
          EXPECT_EQ(ff_steps(), before);
          expect_same_core(fast, ref,
                           case_label(nr, a_ports, b_ports, seed) + " short sweep of " +
                               std::to_string(w.p_end - w.p_begin));
          ++cases;
        }
  EXPECT_EQ(cases, 4 * 2 * 2 * 12);
}

/// Identical per-op work on both cores between sweeps: accumulator loads
/// and drains, MEM-B panel pokes and a few MACs outside the sweep.
struct Between {
  Rng rng;
  explicit Between(std::uint64_t seed) : rng(seed) {}

  void load_accumulators(sim::Core& fast, sim::Core& ref, int parity, double ready) {
    for (int r = 0; r < fast.nr(); ++r)
      for (int c = 0; c < fast.nr(); ++c) {
        const double v = rng.uniform(-1.0, 1.0);
        fast.pe(r, c).mac.set_acc(parity, sim::at(v, ready));
        ref.pe(r, c).mac.set_acc(parity, sim::at(v, ready));
      }
  }
  void poke_panel(sim::Core& fast, sim::Core& ref, index_t words) {
    for (int r = 0; r < fast.nr(); ++r)
      for (int c = 0; c < fast.nr(); ++c)
        for (index_t i = 0; i < words; ++i) {
          const double v = rng.uniform(-1.0, 1.0);
          fast.pe(r, c).mem_b.poke(i, v);
          ref.pe(r, c).mem_b.poke(i, v);
        }
  }
  /// Drain accumulator set `parity`; returns the drain time (equal on both
  /// cores when the states match).
  double drain(sim::Core& fast, sim::Core& ref, int parity) {
    double ready = 0.0;
    for (int r = 0; r < fast.nr(); ++r)
      for (int c = 0; c < fast.nr(); ++c) {
        const sim::TimedVal g = fast.pe(r, c).mac.read_acc(parity);
        const sim::TimedVal w = ref.pe(r, c).mac.read_acc(parity);
        EXPECT_EQ(bits(g.v), bits(w.v));
        EXPECT_EQ(bits(g.ready), bits(w.ready));
        ready = std::max(ready, w.ready);
      }
    return ready;
  }
  /// A per-op MAC on one PE (as TRSM's diagonal solve issues between sweeps).
  void stray_mac(sim::Core& fast, sim::Core& ref, double t) {
    const int r = static_cast<int>(rng.next_index(static_cast<std::uint64_t>(fast.nr())));
    const int c = static_cast<int>(rng.next_index(static_cast<std::uint64_t>(fast.nr())));
    const sim::TimedVal a = sim::at(rng.uniform(-1.0, 1.0), t);
    fast.pe(r, c).mac.fma(a, a, a);
    ref.pe(r, c).mac.fma(a, a, a);
  }
};

TEST(Rank1Sweep, MultiSweepSequencesOnOneCoreMatchAfterEverySweep) {
  // CHIP_GEMM's block pattern (mc = 2nr, kc = nr: the parity alternates per
  // C block under one B panel) and TRSM's lb chain (nr-step negated sweeps
  // into one accumulator set, then a drain and the parity flips), on one
  // core and one StreamSchedule, with per-op work between the sweeps.
  int sweeps = 0;
  for (int nr : {2, 4, 8})
    for (int ports : {1, 3})
      for (double bw : {0.5, 0.3, 1.7}) {
        const arch::CoreConfig cfg = config(nr, ports, ports == 1 ? 2 : 3);
        const std::string label =
            case_label(nr, cfg.pe.mem_a_ports, cfg.pe.mem_b_ports, 0) + " bw " + std::to_string(bw);
        const double block = static_cast<double>(nr) * nr / bw;  // one C block's transfer
        sim::Core fast(cfg, bw, 2);
        sim::Core ref(cfg, bw, 2);
        seed_entry_state({&fast, &ref}, static_cast<std::uint64_t>(nr * 10 + ports), false, 8.0);
        Between between(static_cast<std::uint64_t>(nr * 1000 + ports));
        StreamSchedule sched(fast);

        // CHIP_GEMM: three B panels, two C blocks each.
        double cursor = 0.0;
        for (index_t jb = 0; jb < 3; ++jb) {
          between.poke_panel(fast, ref, nr);
          cursor += block;
          const double b_ready = cursor;
          for (index_t ib = 0; ib < 2; ++ib) {
            const int parity = static_cast<int>((jb * 2 + ib) % 2);
            cursor += block;
            between.load_accumulators(fast, ref, parity, std::max(cursor, b_ready));
            const SweepArgs w{parity, 0, 2 * nr, ib * nr, 0, nr, 0, b_ready, false};
            fast_sweep(sched, w);
            reference_sweep(ref, w);
            expect_same_core(fast, ref, label + " CHIP_GEMM jb " + std::to_string(jb) + " ib " +
                                            std::to_string(ib));
            ++sweeps;
            cursor = std::max(cursor, between.drain(fast, ref, parity)) + block;
          }
        }

        // TRSM: block rows i = 0..2 of a 3nr-row L, two column blocks each.
        int parity = 0;
        for (index_t i = 0; i < 3; ++i)
          for (index_t jb = 0; jb < 2; ++jb) {
            cursor += block;
            const double c_in_done = cursor;
            between.load_accumulators(fast, ref, parity, c_in_done);
            for (index_t lb = 0; lb < i; ++lb) {
              between.poke_panel(fast, ref, nr);
              cursor += block;
              const SweepArgs w{parity, 0, 3 * nr, i * nr, lb * nr, (lb + 1) * nr, 0, c_in_done,
                                true};
              fast_sweep(sched, w);
              reference_sweep(ref, w);
              expect_same_core(fast, ref, label + " TRSM i " + std::to_string(i) + " jb " +
                                              std::to_string(jb) + " lb " + std::to_string(lb));
              ++sweeps;
            }
            const double drained = between.drain(fast, ref, parity);
            between.stray_mac(fast, ref, drained);
            cursor = std::max(cursor, drained) + block;
            parity ^= 1;
          }
      }
  EXPECT_EQ(sweeps, 3 * 2 * 3 * (6 + 6));
}

TEST(Rank1Sweep, PlanMemoSurvivesPlanCacheRestart) {
  // A schedule memoizes its last plan. More distinct sweep shapes than the
  // thread-local plan cache holds restart that cache cold; the memoized
  // plan must stay valid (under ASan a dangling one fails here).
  const arch::CoreConfig cfg = config(4, 1, 2);
  sim::Core fast(cfg, 4.0, 2);
  sim::Core ref(cfg, 4.0, 2);
  seed_entry_state({&fast, &ref}, 77, true, 16.0);
  const SweepArgs w{0, 0, 4 * 4, 4, 0, 8, 0, 2.0, false};
  StreamSchedule sched(fast);
  fast_sweep(sched, w);
  reference_sweep(ref, w);
  {
    sim::Core other(cfg, 4.0, 2);
    StreamSchedule churn(other);
    for (index_t p = 0; p < 4200; ++p)
      churn.rank1_update(1, 0, 4, 0, p, p + 1, 0, 0.0);
  }
  fast_sweep(sched, w);
  reference_sweep(ref, w);
  expect_same_core(fast, ref, "memoized plan after a cache restart");
}

TEST(Rank1Sweep, CountersAddUpOverTrsmAndChipGemmRequests) {
  // The schedule counters are batched per StreamSchedule; at each kernel
  // boundary they must total one plan lookup per rank-1 sweep and nr
  // row-steps per sweep step, split between fast-forwarded and exact.
  auto totals = [] {
    return std::array<std::uint64_t, 2>{
        counter("lac.fabric.schedule.plan_hits") + counter("lac.fabric.schedule.plan_misses"),
        counter("lac.fabric.schedule.ff_steps") + counter("lac.fabric.schedule.exact_steps")};
  };
  SimExecutor sim;

  // TRSM: n = 16, m = 8 on 4x4: per block row i and column block jb, one
  // nr-step sweep for each lb < i.
  const arch::CoreConfig cfg = arch::lac_4x4_dp();
  const int nr = cfg.nr;
  const index_t n = 16;
  const index_t m = 8;
  MatrixD l = random_lower_triangular(n, 31);
  MatrixD b = random_matrix(n, m, 32);
  auto before = totals();
  ASSERT_TRUE(sim.execute(make_trsm(cfg, 0.5, l.view(), b.view())).ok);
  auto after = totals();
  const index_t kb = n / nr;
  const std::uint64_t trsm_sweeps = static_cast<std::uint64_t>((m / nr) * kb * (kb - 1) / 2);
  EXPECT_EQ(after[0] - before[0], trsm_sweeps);
  EXPECT_EQ(after[1] - before[1], trsm_sweeps * static_cast<std::uint64_t>(nr * nr));

  // CHIP_GEMM: per kc panel, core, mc tile, nr-column block and nr-row
  // block, one kc-step sweep.
  arch::ChipConfig chip = arch::lap_s8();
  chip.cores = 2;
  const int cnr = chip.core.nr;
  const index_t mc = 16;
  const index_t kc = 16;
  MatrixD a = random_matrix(32, 32, 33);
  MatrixD bb = random_matrix(32, 32, 34);
  MatrixD c = random_matrix(32, 32, 35);
  before = totals();
  ASSERT_TRUE(sim.execute(make_chip_gemm(chip, mc, kc, a.view(), bb.view(), c.view())).ok);
  after = totals();
  const index_t tiles = 32 / chip.cores / mc;
  const std::uint64_t chip_sweeps =
      static_cast<std::uint64_t>((32 / kc) * chip.cores * tiles * (32 / cnr) * (mc / cnr));
  EXPECT_EQ(after[0] - before[0], chip_sweeps);
  EXPECT_EQ(after[1] - before[1], chip_sweeps * static_cast<std::uint64_t>(kc * cnr));
}

}  // namespace
}  // namespace lac::fabric
