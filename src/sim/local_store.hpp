#pragma once
// PE-local storage: MEM-A (large, single-ported), MEM-B (small,
// dual-ported) and the 4-entry register file (§3.2.2).
//
// Functional contents are flat word arrays addressed by the kernel mappers
// (access patterns are sequential/auto-incrementing in the real hardware,
// so explicit addresses carry no modeling cost). Port contention is timed
// on one lane per port group (sim::PortLane); block arrival times are
// tracked at DMA granularity by the kernels.
#include <algorithm>
#include <cassert>
#include <cstddef>
#include <vector>

#include "sim/engine.hpp"
#include "sim/mesh_lanes.hpp"

namespace lac::sim {

class LocalStore {
 public:
  /// A store of `words` words whose port group (next_free, ops) lives at
  /// `port`.
  LocalStore(index_t words, int ports, PortLane port)
      : data_(static_cast<std::size_t>(words), 0.0),
        ports_(ports),
        access_(1.0 / ports),
        port_(port) {}

  index_t size() const { return static_cast<index_t>(data_.size()); }
  int ports() const { return ports_; }
  /// Port time per access: `ports()` accesses share a cycle.
  time_t_ access_time() const { return access_; }

  // read/write live in the header: they sit on the innermost loop of every
  // kernel schedule and must inline into the callers.

  /// Timed read: charges a port slot, value ready one cycle later.
  TimedVal read(index_t addr, time_t_ earliest) {
    assert(addr >= 0 && addr < size());
    const time_t_ start = port_.acquire(earliest, access_);
    return {data_[static_cast<std::size_t>(addr)], start + 1.0};
  }
  /// Timed write: charges a port slot.
  time_t_ write(index_t addr, double v, time_t_ earliest) {
    assert(addr >= 0 && addr < size());
    const time_t_ start = port_.acquire(earliest, access_);
    data_[static_cast<std::size_t>(addr)] = v;
    ++writes_;
    return start + 1.0;
  }

  /// Untimed accessors for DMA fills (timing charged on the DMA engine).
  double peek(index_t addr) const { return data_[static_cast<std::size_t>(addr)]; }
  void poke(index_t addr, double v) { data_[static_cast<std::size_t>(addr)] = v; }
  const double* data() const { return data_.data(); }

  /// Re-point the port group (its lanes moved).
  void bind(PortLane port) { port_ = port; }

  /// Every port access is a read or a write.
  std::int64_t reads() const { return *port_.ops - writes_; }
  std::int64_t writes() const { return writes_; }
  /// Restore fresh-constructed contents: zeroed words (a freshly
  /// constructed store is zero-initialized, and pooled reuse must be
  /// byte-identical to construction) and no writes. The port lane is reset
  /// with the lanes it lives in.
  void reset() {
    std::fill(data_.begin(), data_.end(), 0.0);
    writes_ = 0;
  }

 private:
  std::vector<double> data_;
  int ports_;
  time_t_ access_;  ///< port time per access: `ports_` accesses per cycle
  PortLane port_;
  std::int64_t writes_ = 0;
};

/// Small multi-ported register file (1 write + 2 read ports).
class RegisterFile {
 public:
  explicit RegisterFile(int entries) : regs_(static_cast<std::size_t>(entries)) {}

  TimedVal read(int idx, time_t_ earliest) {
    assert(idx >= 0 && idx < static_cast<int>(regs_.size()));
    ++reads_;
    const TimedVal& r = regs_[static_cast<std::size_t>(idx)];
    return {r.v, std::max(r.ready, earliest)};
  }
  void write(int idx, TimedVal v) {
    assert(idx >= 0 && idx < static_cast<int>(regs_.size()));
    ++writes_;
    regs_[static_cast<std::size_t>(idx)] = v;
  }

  std::int64_t reads() const { return reads_; }
  std::int64_t writes() const { return writes_; }
  /// Restore fresh-constructed state (zeroed entries, zero counters).
  void reset() {
    regs_.assign(regs_.size(), TimedVal{});
    reads_ = 0;
    writes_ = 0;
  }

 private:
  std::vector<TimedVal> regs_;
  std::int64_t reads_ = 0;
  std::int64_t writes_ = 0;
};

}  // namespace lac::sim
