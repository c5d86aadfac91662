#include "sim/core.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

namespace lac::sim {

Pe::Pe(const arch::CoreConfig& cfg, MeshLanes& lanes, std::size_t lane)
    : mac(cfg.pe.pipeline_stages, lanes, lane),
      mem_a(cfg.pe.mem_a_words(), cfg.pe.mem_a_ports,
            lanes.port(MeshLanes::kMemAFree, MeshLanes::kMemAOps, lane)),
      mem_b(cfg.pe.mem_b_words(), cfg.pe.mem_b_ports,
            lanes.port(MeshLanes::kMemBFree, MeshLanes::kMemBOps, lane)),
      rf(cfg.pe.register_file_entries) {}

void Pe::bind(MeshLanes& lanes, std::size_t lane) {
  mac.bind(lanes, lane);
  mem_a.bind(lanes.port(MeshLanes::kMemAFree, MeshLanes::kMemAOps, lane));
  mem_b.bind(lanes.port(MeshLanes::kMemBFree, MeshLanes::kMemBOps, lane));
}

void Pe::reset() {
  mem_a.reset();
  mem_b.reset();
  rf.reset();
}

Core::Core(const arch::CoreConfig& cfg, double bw_words_per_cycle, int accumulators)
    : cfg_(cfg),
      bw_(bw_words_per_cycle),
      lanes_(cfg.nr, accumulators),
      col_bus_(static_cast<std::size_t>(cfg.nr)),
      sfu_(cfg) {
  const std::size_t pes = static_cast<std::size_t>(cfg.nr) * cfg.nr;
  pes_.reserve(pes);
  for (std::size_t i = 0; i < pes; ++i) pes_.emplace_back(cfg, lanes_, i);
}

void Core::reset(double bw_words_per_cycle, int accumulators) {
  bw_ = bw_words_per_cycle;
  lanes_.reset(accumulators);
  for (std::size_t i = 0; i < pes_.size(); ++i) {
    pes_[i].bind(lanes_, i);
    pes_[i].reset();
  }
  for (auto& b : col_bus_) b.reset();
  mem_if_.reset();
  sfu_.reset();
  dma_words_ = 0;
  mark_.acc = -1;
}

namespace {

/// Is every duration a block of rank-1 sweeps and transfers adds on the
/// grid? Store port slots are fixed; a transfer of w whole words takes
/// w / bw, a multiple of 2^-8 for every w only when bw is a power of two
/// of at most 256. Bus latency and pipeline depth are whole cycles.
bool block_durations_on_grid(double bw, const Pe& pe) {
  int exp = 0;
  return std::frexp(bw, &exp) == 0.5 && on_grid(1.0 / bw) && on_grid(pe.mem_a.access_time()) &&
         on_grid(pe.mem_b.access_time());
}

/// Did each of the n words move by `delta` since `was`, from the grid to
/// below `below`? Branch-free, two words at a time (the SSE2 width of
/// baseline x86-64): each word's misses (off the grid, or not moved by
/// exactly delta) add up in `miss`, a sum of magnitudes that stays 0 only
/// when every one of them is 0.
bool moved_by(const double* now, const double* was, std::size_t n, time_t_ delta,
              time_t_ below) {
  typedef double Lanes2 __attribute__((vector_size(2 * sizeof(double))));
  Lanes2 miss{}, hi{}, lo{};
  for (std::size_t i = 0; i < n; i += 2) {
    const std::size_t j = std::min(i + 1, n - 1);
    const Lanes2 w{was[i], was[j]};
    const Lanes2 x{now[i], now[j]};
    const Lanes2 g = grid_miss(w);
    const Lanes2 d = (w + delta) - x;
    miss += (g < -g ? -g : g) + (d < -d ? -d : d);
    hi = hi < w ? w : hi;
    lo = w < lo ? w : lo;
  }
  return miss[0] + miss[1] == 0.0 && hi[0] < below && hi[1] < below && -kGridTop < lo[0] &&
         -kGridTop < lo[1];
}

}  // namespace

void Core::mark_block(int acc) {
  if (!block_durations_on_grid(bw_, pes_.front())) return;
  mark_.lanes = lanes_;
  mark_.mem_if = mem_if_;
  mark_.dma_words = dma_words_;
  mark_.acc = acc;
}

time_t_ Core::close_blocks(std::int64_t k, int acc) {
  constexpr int kSets = 2;  // the double-buffered accumulator sets
  assert(acc >= 0 && acc < kSets && kSets <= lanes_.accumulators);
  if (k <= 0 || mark_.acc < 0) return 0.0;
  const MeshLanes& then = *mark_.lanes;
  const time_t_ delta = mem_if_.next_free() - mark_.mem_if.next_free();
  const time_t_ jump = static_cast<time_t_>(k) * delta;
  if (!(delta > 0.0) || !on_grid(jump) || !on_grid(mark_.mem_if.next_free()) ||
      !on_grid(mem_if_.next_free()))
    return 0.0;
  // delta is exact and below 2^36. A word moved by delta when its marked
  // value is on the grid and adding delta gives its value now: then the sum
  // is exact, and so is the word k deltas on while below 2^36.
  using M = MeshLanes;
  const time_t_ below = kGridTop - delta - jump;
  // A busy total repeats its last increment k times.
  auto repeats = [&](time_t_ now, time_t_ was) {
    return on_grid(now) && on_grid(was) && on_grid(now + static_cast<time_t_>(k) * (now - was));
  };
  // The port and issue-port words come first in the word array, and each
  // set's ready and chain words are adjacent fields.
  const std::size_t carried = M::kAccWords * lanes_.pes;
  const std::size_t acc_words = 2 * lanes_.pes;
  const std::size_t rows = lanes_.row_bus.next_free.size();
  if (!moved_by(lanes_.words.data(), then.words.data(), carried, delta, below) ||
      !moved_by(lanes_.word(M::acc_word(acc, M::kAccReady)),
                then.word(M::acc_word(mark_.acc, M::kAccReady)), acc_words, delta, below) ||
      !moved_by(lanes_.row_bus.next_free.data(), then.row_bus.next_free.data(), rows, delta,
                below) ||
      !(mark_.mem_if.next_free() < below) ||
      !repeats(mem_if_.busy_cycles(), mark_.mem_if.busy_cycles()))
    return 0.0;
  for (std::size_t r = 0; r < rows; ++r)
    if (!repeats(lanes_.row_bus.busy[r], then.row_bus.busy[r])) return 0.0;
  // The other set moves too: its words must stay on the grid.
  const double* other = lanes_.word(M::acc_word(1 - acc, M::kAccReady));
  if (!moved_by(other, other, acc_words, 0.0, below + delta)) return 0.0;

  for (std::size_t i = 0; i < carried; ++i) lanes_.words[i] += jump;
  for (int a = 0; a < kSets; ++a) {
    double* w = lanes_.word(M::acc_word(a, M::kAccReady));
    for (std::size_t i = 0; i < acc_words; ++i) w[i] += jump;
  }
  for (std::size_t i = 0; i < lanes_.counts.size(); ++i)
    lanes_.counts[i] += k * (lanes_.counts[i] - then.counts[i]);
  ResourceLanes& bus = lanes_.row_bus;
  for (std::size_t r = 0; r < rows; ++r) {
    bus.next_free[r] += jump;
    bus.busy[r] += static_cast<time_t_>(k) * (bus.busy[r] - then.row_bus.busy[r]);
    bus.ops[r] += k * (bus.ops[r] - then.row_bus.ops[r]);
  }
  mem_if_.repeat(mark_.mem_if, k, jump);
  dma_words_ += k * (dma_words_ - mark_.dma_words);
  mark_.acc = -1;
  return jump;
}

TimedVal Core::special(SfuKind kind, int row, int col, TimedVal x, time_t_ earliest) {
  switch (cfg_.sfu) {
    case arch::SfuOption::Software:
      return sfu_.execute(kind, x, &pe(row, col).mac, earliest);
    case arch::SfuOption::IsolatedUnit: {
      // Operand travels to the unit on the row bus, result returns on the
      // column bus (the SFU taps both, Fig 1.1).
      TimedVal to_unit = broadcast_row(row, x);
      TimedVal r = sfu_.execute(kind, to_unit, nullptr, earliest);
      return broadcast_col(col, r);
    }
    case arch::SfuOption::DiagonalPEs: {
      if (row == col) return sfu_.execute(kind, x, nullptr, earliest);
      // Route to the diagonal PE of this row and back along its column.
      TimedVal to_diag = broadcast_row(row, x);
      TimedVal r = sfu_.execute(kind, to_diag, nullptr, earliest);
      return broadcast_col(col, r);
    }
  }
  return x;
}

time_t_ Core::finish_time() const {
  time_t_ t = 0.0;
  // Accumulator drains are captured through read_acc by the kernels.
  const double* issue_free = lanes_.word(MeshLanes::kIssueFree);
  for (std::size_t i = 0; i < lanes_.pes; ++i) t = std::max(t, issue_free[i]);
  for (time_t_ free : lanes_.row_bus.next_free) t = std::max(t, free);
  for (const auto& b : col_bus_) t = std::max(t, b.next_free());
  t = std::max(t, mem_if_.next_free());
  return t;
}

Stats Core::stats() const {
  Stats s;
  for (const auto& pe : pes_) {
    s.mem_a_reads += pe.mem_a.reads();
    s.mem_a_writes += pe.mem_a.writes();
    s.mem_b_reads += pe.mem_b.reads();
    s.mem_b_writes += pe.mem_b.writes();
    s.rf_reads += pe.rf.reads();
    s.rf_writes += pe.rf.writes();
    s.mac_ops += pe.mac.mac_ops();
    s.mul_ops += pe.mac.mul_ops();
    s.cmp_ops += pe.mac.cmp_ops();
  }
  for (std::int64_t ops : lanes_.row_bus.ops) s.row_bus_xfers += ops;
  for (const auto& b : col_bus_) s.col_bus_xfers += b.ops();
  s.sfu_ops = sfu_.ops();
  s.dma_words = dma_words_;
  return s;
}

}  // namespace lac::sim
