#include "sim/core.hpp"

#include <algorithm>
#include <cassert>

namespace lac::sim {

Pe::Pe(const arch::CoreConfig& cfg, MeshLanes& lanes, std::size_t lane)
    : mac(cfg.pe.pipeline_stages, lanes, lane),
      mem_a(static_cast<index_t>(cfg.pe.mem_a_kbytes * 1024.0 /
                                 bytes_of(cfg.pe.precision)),
            cfg.pe.mem_a_ports, lanes.port(MeshLanes::kMemAFree, MeshLanes::kMemAOps, lane)),
      mem_b(static_cast<index_t>(cfg.pe.mem_b_kbytes * 1024.0 /
                                 bytes_of(cfg.pe.precision)),
            cfg.pe.mem_b_ports, lanes.port(MeshLanes::kMemBFree, MeshLanes::kMemBOps, lane)),
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
