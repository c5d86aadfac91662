#include "sim/core.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "arch/presets.hpp"
#include "common/matrix.hpp"
#include "common/random.hpp"
#include "fabric/kernel_registry.hpp"
#include "fabric/sim_executor.hpp"
#include "fabric/stream_schedule.hpp"
#include "obs/metrics.hpp"
#include "sim/arena.hpp"
#include "sim/chip.hpp"

namespace lac::sim {
namespace {

arch::CoreConfig cfg() { return arch::lac_4x4_dp(); }

TEST(CoreSim, BroadcastBusSerializesPerRow) {
  Core core(cfg(), 4.0);
  TimedVal a = core.broadcast_row(0, at(1.0, 0.0));
  TimedVal b = core.broadcast_row(0, at(2.0, 0.0));
  TimedVal c = core.broadcast_row(1, at(3.0, 0.0));
  EXPECT_DOUBLE_EQ(a.ready, 1.0);
  EXPECT_DOUBLE_EQ(b.ready, 2.0);  // same bus: next slot
  EXPECT_DOUBLE_EQ(c.ready, 1.0);  // different bus: parallel
  EXPECT_EQ(core.stats().row_bus_xfers, 3);
}

TEST(CoreSim, DmaHonorsBandwidth) {
  Core core(cfg(), 2.0);  // 2 words/cycle
  const time_t_ t1 = core.dma(16.0, 0.0);
  EXPECT_DOUBLE_EQ(t1, 8.0);
  const time_t_ t2 = core.dma(4.0, 0.0);  // queued behind the first
  EXPECT_DOUBLE_EQ(t2, 10.0);
  EXPECT_EQ(core.stats().dma_words, 20);
}

TEST(CoreSim, LocalStoreSizesFollowConfig) {
  Core core(cfg(), 1.0);
  // 16 KB / 8 B = 2048 words MEM-A; 2 KB -> 256 words MEM-B.
  EXPECT_EQ(core.pe(0, 0).mem_a.size(), 2048);
  EXPECT_EQ(core.pe(0, 0).mem_b.size(), 256);
  EXPECT_EQ(core.pe(0, 0).mem_a.ports(), 1);
  EXPECT_EQ(core.pe(0, 0).mem_b.ports(), 2);
}

TEST(CoreSim, MemAPortContention) {
  Core core(cfg(), 1.0);
  LocalStore& m = core.pe(0, 0).mem_a;
  m.poke(0, 1.0);
  m.poke(1, 2.0);
  TimedVal a = m.read(0, 0.0);
  TimedVal b = m.read(1, 0.0);
  EXPECT_DOUBLE_EQ(a.ready, 1.0);
  EXPECT_DOUBLE_EQ(b.ready, 2.0);  // single port: one access/cycle
  LocalStore& mb = core.pe(0, 0).mem_b;
  mb.poke(0, 1.0);
  mb.poke(1, 2.0);
  TimedVal c = mb.read(0, 0.0);
  TimedVal d = mb.read(1, 0.0);
  EXPECT_DOUBLE_EQ(c.ready, 1.0);  // dual ported: two accesses/cycle
  EXPECT_DOUBLE_EQ(d.ready, 1.5);
}

TEST(CoreSim, SpecialFunctionLatencies) {
  arch::CoreConfig c = cfg();
  c.sfu = arch::SfuOption::IsolatedUnit;
  Core core(c, 1.0);
  TimedVal r = core.special(SfuKind::Recip, 1, 2, at(4.0, 0.0));
  EXPECT_DOUBLE_EQ(r.v, 0.25);
  // Row hop + unit latency + column hop.
  EXPECT_GE(r.ready, c.sfu_latency_recip + 2.0);
  EXPECT_EQ(core.stats().sfu_ops, 1);
}

TEST(CoreSim, SoftwareSfuOccupiesPeMac) {
  arch::CoreConfig c = cfg();
  c.sfu = arch::SfuOption::Software;
  Core core(c, 1.0);
  TimedVal r = core.special(SfuKind::Recip, 0, 0, at(2.0, 0.0));
  EXPECT_DOUBLE_EQ(r.v, 0.5);
  // The PE's MAC was blocked for the emulation cycles.
  TimedVal m = core.pe(0, 0).mac.mul(at(1.0, 0.0), at(1.0, 0.0));
  EXPECT_GE(m.ready - c.pe.pipeline_stages, c.sw_emulation_cycles);
}

TEST(CoreSim, DiagonalSfuLocalVsRouted) {
  arch::CoreConfig c = cfg();
  c.sfu = arch::SfuOption::DiagonalPEs;
  Core core(c, 1.0);
  TimedVal local = core.special(SfuKind::Recip, 1, 1, at(2.0, 0.0));
  Core core2(c, 1.0);
  TimedVal routed = core2.special(SfuKind::Recip, 1, 3, at(2.0, 0.0));
  EXPECT_LT(local.ready, routed.ready);  // off-diagonal pays the bus hops
}

TEST(CoreSim, FinishTimeCoversAllResources) {
  Core core(cfg(), 1.0);
  core.dma(10.0, 0.0);
  core.broadcast_col(3, at(1.0, 4.0));
  core.pe(2, 2).mac.mul(at(1.0, 0.0), at(1.0, 0.0));
  EXPECT_GE(core.finish_time(), 10.0);
}

TEST(ChipSim, SharedBandwidthPartitionedAcrossCores) {
  arch::ChipConfig cc = arch::lap_s8();
  cc.cores = 2;
  cc.onchip_bw_words_per_cycle = 4.0;
  Chip chip(cc);
  // Static banking: each core owns a 2 words/cycle channel, so concurrent
  // transfers proceed in parallel at the per-core rate.
  const time_t_ t0 = chip.shared_dma(0, 16.0, 0.0);
  const time_t_ t1 = chip.shared_dma(1, 16.0, 0.0);
  EXPECT_DOUBLE_EQ(t0, 8.0);  // 16 words / (4/2) wpc
  EXPECT_DOUBLE_EQ(t1, 8.0);  // parallel, not queued behind core 0
  // A second transfer on the same core queues behind its own channel.
  EXPECT_DOUBLE_EQ(chip.shared_dma(0, 8.0, 0.0), 12.0);
  EXPECT_GE(chip.finish_time(), 12.0);
}

TEST(ChipSim, OffchipInterfaceIndependent) {
  arch::ChipConfig cc = arch::lap_s8();
  cc.offchip_bw_words_per_cycle = 1.0;
  Chip chip(cc);
  EXPECT_DOUBLE_EQ(chip.offchip_dma(8.0, 0.0), 8.0);
  EXPECT_DOUBLE_EQ(chip.offchip_dma(8.0, 0.0), 16.0);
  EXPECT_EQ(chip.stats().dma_words, 16);
}

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

bool same_bytes(const ResourceLanes& a, const ResourceLanes& b) {
  return same_bytes(a.next_free, b.next_free) && same_bytes(a.busy, b.busy) &&
         same_bytes(a.ops, b.ops);
}

/// Every per-field lane array of two cores, byte for byte.
void expect_same_lanes(const Core& got, const Core& want) {
  const MeshLanes& g = got.lanes();
  const MeshLanes& w = want.lanes();
  EXPECT_EQ(g.pes, w.pes);
  EXPECT_EQ(g.accumulators, w.accumulators);
  EXPECT_TRUE(same_bytes(g.words, w.words));
  EXPECT_TRUE(same_bytes(g.counts, w.counts));
  EXPECT_TRUE(same_bytes(g.row_bus, w.row_bus));
}

/// Every MEM-A and MEM-B word of `core` is 0.0, as in a fresh core.
void expect_zeroed_stores(const Core& core, const std::string& label) {
  for (int r = 0; r < core.nr(); ++r)
    for (int c = 0; c < core.nr(); ++c)
      for (const LocalStore* m : {&core.pe(r, c).mem_a, &core.pe(r, c).mem_b}) {
        index_t dirty = 0;
        for (index_t i = 0; i < m->size(); ++i) dirty += m->peek(i) != 0.0 ? 1 : 0;
        EXPECT_EQ(dirty, 0) << label << " PE(" << r << "," << c << ") "
                            << (m == &core.pe(r, c).mem_a ? "MEM-A" : "MEM-B");
      }
}

TEST(CoreSim, ResetRestoresFreshConstructedState) {
  // Dirty a core thoroughly through real ops -- bus slots, the memory
  // interface, store ports and contents, MAC issue ports, accumulators,
  // every op counter -- under one (bandwidth, accumulators) point, then
  // reset() it to another. It must be indistinguishable from a never-used
  // core: this is the contract SimArena's pooling relies on for the
  // serving determinism guarantee.
  Core used(cfg(), 4.0, 2);
  used.broadcast_row(0, at(1.0, 0.0));
  used.broadcast_col(1, at(2.0, 0.0));
  used.dma(64.0, 0.0);
  used.pe(1, 2).mem_a.poke(7, 3.5);
  used.pe(1, 2).mem_a.read(7, 3.0);
  used.pe(0, 0).mem_b.write(0, -1.0, 2.0);
  used.pe(3, 3).rf.write(0, at(9.0, 0.0));
  Pe& pe = used.pe(2, 1);
  pe.mac.set_acc(1, at(0.25, 5.0));
  pe.mac.mac_into_acc(1, at(2.0, 1.0), at(3.0, 1.0));
  pe.mac.mul(at(2.0, 0.0), at(2.0, 0.0));
  pe.mac.compare_abs_max(at(1.0, 0.0), at(-2.0, 0.0), false);
  pe.mac.occupy(20.0, 3.0);
  used.special(SfuKind::Recip, 0, 0, at(4.0, 0.0));
  used.reset(2.0, 4);

  Core fresh(cfg(), 2.0, 4);
  expect_same_lanes(used, fresh);
  EXPECT_EQ(used.lanes().accumulators, 4);
  for (int r = 0; r < used.nr(); ++r)
    for (int c = 0; c < used.nr(); ++c) {
      const Pe& u = used.pe(r, c);
      const Pe& f = fresh.pe(r, c);
      EXPECT_EQ(std::memcmp(u.mem_a.data(), f.mem_a.data(),
                            static_cast<std::size_t>(f.mem_a.size()) * sizeof(double)),
                0);
      EXPECT_EQ(std::memcmp(u.mem_b.data(), f.mem_b.data(),
                            static_cast<std::size_t>(f.mem_b.size()) * sizeof(double)),
                0);
      EXPECT_EQ(u.mem_a.writes(), 0);
      EXPECT_EQ(u.mem_b.writes(), 0);
      EXPECT_EQ(u.rf.reads(), 0);
      EXPECT_EQ(u.rf.writes(), 0);
    }
  const Stats s = used.stats();
  EXPECT_EQ(s.row_bus_xfers, 0);
  EXPECT_EQ(s.col_bus_xfers, 0);
  EXPECT_EQ(s.dma_words, 0);
  EXPECT_EQ(s.sfu_ops, 0);
  EXPECT_DOUBLE_EQ(used.finish_time(), fresh.finish_time());
  // Replay one op sequence on both; timings must agree exactly (no
  // residual bus or interface occupancy survives the reset).
  for (Core* c : {&used, &fresh}) {
    c->broadcast_row(0, at(1.0, 0.0));
    c->dma(16.0, 0.0);
    c->pe(2, 1).mac.mac_into_acc(3, at(1.0, 0.0), at(1.0, 0.0));
  }
  EXPECT_DOUBLE_EQ(used.broadcast_row(0, at(2.0, 0.0)).ready,
                   fresh.broadcast_row(0, at(2.0, 0.0)).ready);
  EXPECT_DOUBLE_EQ(used.dma(4.0, 0.0), fresh.dma(4.0, 0.0));
  EXPECT_DOUBLE_EQ(used.finish_time(), fresh.finish_time());
  expect_same_lanes(used, fresh);

  // Reset zeroes only the words written since the last one, so every
  // write path must mark what it writes. Each path dirties the last word
  // of MEM-A or MEM-B on a core of its own (one path's mark must not
  // cover another's), on 1024-word MEM-A stores: 32^2 words, so the
  // lower-triangular stage of a 128 x 128 L reaches the last one.
  arch::CoreConfig small = cfg();
  small.pe.mem_a_kbytes = 8.0;
  const index_t words_a = 1024;
  const index_t words_b = 256;
  const int nr = small.nr;
  Rng rng(11);
  auto values = [&](index_t rows, index_t cols) {
    MatrixD m(rows, cols);
    for (index_t j = 0; j < cols; ++j)
      for (index_t i = 0; i < rows; ++i) m(i, j) = rng.uniform(0.5, 1.0);
    return m;
  };
  const MatrixD resident = values(2 * nr, 2 * nr);  // 4 words per PE
  const MatrixD lower = values(128, 128);
  const MatrixD panel = values(words_a * nr, nr);
  const MatrixD panel_b = values(8, nr);
  struct Path {
    const char* name;
    std::function<void(Core&)> write;
  };
  const Path paths[] = {
      {"poke",
       [&](Core& c) {
         c.pe(3, 3).mem_a.poke(words_a - 1, 1.5);
         c.pe(3, 3).mem_b.poke(words_b - 1, 2.5);
       }},
      {"write",
       [&](Core& c) {
         c.pe(1, 2).mem_a.write(words_a - 1, 1.5, 0.0);
         c.pe(1, 2).mem_b.write(words_b - 1, 2.5, 0.0);
       }},
      {"stage_panel_b",
       [&](Core& c) {
         fabric::StreamSchedule(c).stage_panel_b(
             words_b - 8, 8, [&](index_t p, int col) { return panel_b(p, col); });
       }},
      {"poke_resident",
       [&](Core& c) { fabric::StreamSchedule(c).poke_resident(resident.view(), words_a - 4); }},
      {"stage_resident",
       [&](Core& c) { fabric::StreamSchedule(c).stage_resident(resident.view(), words_a - 4); }},
      {"stage_resident_lower",
       [&](Core& c) { fabric::StreamSchedule(c).stage_resident_lower(lower.view()); }},
      {"stage_panel", [&](Core& c) { fabric::StreamSchedule(c).stage_panel(panel.view()); }},
  };
  for (const Path& path : paths) {
    Core dirty(small, 4.0, 2);
    path.write(dirty);
    bool last_word = false;
    for (int r = 0; r < nr; ++r)
      for (int c = 0; c < nr; ++c)
        last_word = last_word || dirty.pe(r, c).mem_a.peek(words_a - 1) != 0.0 ||
                    dirty.pe(r, c).mem_b.peek(words_b - 1) != 0.0;
    EXPECT_TRUE(last_word) << path.name << " does not reach the last word";
    dirty.reset(2.0, 4);
    expect_zeroed_stores(dirty, path.name);
  }
}

TEST(SimArena, PooledCoresAreZeroedAfterEveryKind) {
  // Every registered kind, run on this thread, returns its cores to the
  // thread's arena; a core acquired after any request must hold only
  // zeros, whichever staging path the request wrote through.
  obs::Counter& hits = obs::MetricsRegistry::global().counter("lac.sim.arena.core_hits");
  const fabric::SimExecutor sim;
  struct Grid {
    arch::CoreConfig cfg;
    std::vector<index_t> ns;
  };
  const Grid grids[] = {{arch::lac_4x4_dp(), {4, 8, 16, 32, 64}},
                        {arch::lac_8x8_dp(), {8, 16, 32, 64}}};
  int requests = 0;
  for (const Grid& g : grids)
    for (fabric::KernelKind kind : fabric::registered_kernel_kinds())
      for (index_t n : g.ns)
        for (double bw : {0.3, 0.5, 4.0}) {
          const fabric::KernelTraits& t = fabric::kernel_traits(kind);
          sim.execute(t.sized_request(g.cfg, bw, n, 1));
          ++requests;
          const std::string label = std::string(t.name) + " nr " + std::to_string(g.cfg.nr) +
                                    " n " + std::to_string(n) + " bw " + std::to_string(bw);
          // Take every idle core of this config out of the pool at once.
          SimArena& arena = SimArena::local();
          const std::size_t pooled = arena.pooled();
          const std::uint64_t hits_before = hits.value();
          std::vector<std::unique_ptr<Core>> held;
          for (std::size_t i = 0; i < pooled; ++i) held.push_back(arena.acquire(g.cfg, bw, 2));
          EXPECT_GE(hits.value() - hits_before, 1u) << label;
          for (const auto& core : held) expect_zeroed_stores(*core, label);
          for (auto& core : held) arena.release(std::move(core));
        }
  EXPECT_EQ(requests, 10 * (5 + 4) * 3);
}

TEST(SimArena, PooledCoreIsReusedOnlyForMatchingConfig) {
  SimArena& arena = SimArena::local();
  Core* first = nullptr;
  {
    ArenaCore core(cfg(), 4.0);
    first = &core.get();
    core.get().dma(32.0, 0.0);  // dirty it before release
  }
  EXPECT_GE(arena.pooled(), 1u);
  {
    // Same config: the pooled instance comes back, reset to fresh state.
    ArenaCore core(cfg(), 2.0);
    EXPECT_EQ(&core.get(), first);
    EXPECT_EQ(core.get().stats().dma_words, 0);
    EXPECT_DOUBLE_EQ(core.get().bw_words_per_cycle(), 2.0);
  }
  {
    // Any config difference (here: bus latency) must miss the pool.
    arch::CoreConfig other = cfg();
    other.bus_latency += 1;
    ArenaCore core(other, 4.0);
    EXPECT_NE(&core.get(), first);
  }
}

}  // namespace
}  // namespace lac::sim
