// Sweep-level differential test of StreamSchedule::rank1_update. Each case
// seeds an entry state on two identical cores through the public per-op API
// (port, bus and issue-port reservations at dyadic or arbitrary times,
// preloaded accumulators, random store contents), then runs the same sweep
// on one core through rank1_update -- which fast-forwards rows in steady
// state -- and on the other through a reference sweep built here from
// LocalStore::read, Core::broadcast_row and MacPipeline::mac_into_acc, one
// op at a time. The full core state must match bit for bit: every
// resource's next_free/busy/ops, the store, register-file and bus counters,
// and each accumulator's value, ready and chain_free.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "arch/presets.hpp"
#include "common/random.hpp"
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

void expect_same_resource(const sim::Resource& a, const sim::Resource& b,
                          const std::string& what) {
  EXPECT_EQ(bits(a.next_free()), bits(b.next_free())) << what << " next_free";
  EXPECT_EQ(bits(a.busy_cycles()), bits(b.busy_cycles())) << what << " busy";
  EXPECT_EQ(a.ops(), b.ops()) << what << " ops";
}

void expect_same_core(const sim::Core& got, const sim::Core& want, const std::string& label) {
  const int nr = want.nr();
  for (int i = 0; i < nr; ++i) {
    expect_same_resource(got.row_bus(i), want.row_bus(i), label + " row bus " + std::to_string(i));
    expect_same_resource(got.col_bus(i), want.col_bus(i), label + " col bus " + std::to_string(i));
  }
  for (int r = 0; r < nr; ++r)
    for (int c = 0; c < nr; ++c) {
      const std::string pe = label + " PE(" + std::to_string(r) + "," + std::to_string(c) + ")";
      const sim::Pe& g = got.pe(r, c);
      const sim::Pe& w = want.pe(r, c);
      expect_same_resource(g.mem_a.port(), w.mem_a.port(), pe + " MEM-A");
      expect_same_resource(g.mem_b.port(), w.mem_b.port(), pe + " MEM-B");
      expect_same_resource(g.mac.issue_port(), w.mac.issue_port(), pe + " issue");
      EXPECT_EQ(g.mem_a.reads(), w.mem_a.reads()) << pe;
      EXPECT_EQ(g.mem_a.writes(), w.mem_a.writes()) << pe;
      EXPECT_EQ(g.mem_b.reads(), w.mem_b.reads()) << pe;
      EXPECT_EQ(g.mem_b.writes(), w.mem_b.writes()) << pe;
      EXPECT_EQ(g.rf.reads(), w.rf.reads()) << pe;
      EXPECT_EQ(g.rf.writes(), w.rf.writes()) << pe;
      EXPECT_EQ(g.mac.mac_ops(), w.mac.mac_ops()) << pe;
      EXPECT_EQ(g.mac.mul_ops(), w.mac.mul_ops()) << pe;
      for (int idx = 0; idx < 2; ++idx) {
        const sim::TimedVal ga = g.mac.read_acc(idx);
        const sim::TimedVal wa = w.mac.read_acc(idx);
        EXPECT_EQ(bits(ga.v), bits(wa.v)) << pe << " acc " << idx << " value";
        EXPECT_EQ(bits(ga.ready), bits(wa.ready)) << pe << " acc " << idx << " ready";
        EXPECT_EQ(bits(g.mac.acc_chain_free(idx)), bits(w.mac.acc_chain_free(idx)))
            << pe << " acc " << idx << " chain_free";
      }
    }
  const sim::Stats gs = got.stats();
  const sim::Stats ws = want.stats();
  EXPECT_EQ(gs.row_bus_xfers, ws.row_bus_xfers) << label;
  EXPECT_EQ(gs.col_bus_xfers, ws.col_bus_xfers) << label;
  EXPECT_EQ(gs.dma_words, ws.dma_words) << label;
  EXPECT_EQ(bits(got.finish_time()), bits(want.finish_time())) << label;
}

std::uint64_t ff_steps() {
  return obs::MetricsRegistry::global().counter("lac.fabric.schedule.ff_steps").value();
}

TEST(Rank1Sweep, MatchesOpByOpReferenceFromRandomEntryStates) {
  int cases = 0;
  int all_ff = 0;      // every row jumped at its first step
  int partial_ff = 0;  // rows jumped after exact steps, or only some rows
  int no_ff = 0;       // no jump at all
  for (const arch::CoreConfig& base : {arch::lac_4x4_dp(), arch::lac_8x8_dp()})
    for (int a_ports = 1; a_ports <= 3; ++a_ports)
      for (int b_ports = 1; b_ports <= 3; ++b_ports)
        for (std::uint64_t seed = 1; seed <= 24; ++seed) {
          arch::CoreConfig cfg = base;
          cfg.pe.mem_a_ports = a_ports;
          cfg.pe.mem_b_ports = b_ports;
          const int nr = cfg.nr;
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
          StreamSchedule(fast).rank1_update(w.parity, w.a_base, w.rows, w.row0, w.p_begin,
                                            w.p_end, w.slot, w.gate, w.negate);
          reference_sweep(ref, w);
          const std::uint64_t ff = ff_steps() - before;
          const std::uint64_t row_steps = static_cast<std::uint64_t>((w.p_end - w.p_begin) * nr);
          if (ff == 0) ++no_ff;
          else if (ff == row_steps) ++all_ff;
          else ++partial_ff;
          ++cases;
          expect_same_core(fast, ref,
                           "nr " + std::to_string(nr) + " ports " + std::to_string(a_ports) +
                               "/" + std::to_string(b_ports) + " seed " +
                               std::to_string(seed) + " steps " +
                               std::to_string(w.p_end - w.p_begin) +
                               (dyadic ? " dyadic" : " arbitrary"));
        }
  EXPECT_EQ(cases, 2 * 3 * 3 * 24);
  // The differential covers all three regimes: a jump from the first step,
  // a jump after exact steps (or on some rows only), and no jump at all.
  EXPECT_GT(all_ff, 0);
  EXPECT_GT(partial_ff, 0);
  EXPECT_GT(no_ff, 0);
}

}  // namespace
}  // namespace lac::fabric
