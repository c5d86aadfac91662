#pragma once
// PE-local storage: MEM-A (large, single-ported), MEM-B (small,
// dual-ported) and the 4-entry register file (§3.2.2).
//
// Functional contents are flat word arrays addressed by the kernel mappers
// (access patterns are sequential/auto-incrementing in the real hardware,
// so explicit addresses carry no modeling cost). Port contention is timed
// through one Resource per port group; block arrival times are tracked at
// DMA granularity by the kernels.
#include <algorithm>
#include <cassert>
#include <vector>

#include "sim/engine.hpp"

namespace lac::sim {

class LocalStore {
 public:
  LocalStore(index_t words, int ports) : data_(static_cast<std::size_t>(words), 0.0),
                                         ports_(ports) {}

  index_t size() const { return static_cast<index_t>(data_.size()); }
  int ports() const { return ports_; }

  // read/write live in the header: they sit on the innermost loop of every
  // kernel schedule and must inline into the callers.

  /// Timed read: charges a port slot, value ready one cycle later.
  TimedVal read(index_t addr, time_t_ earliest) {
    assert(addr >= 0 && addr < size());
    // `ports_` accesses fit in one cycle: charge 1/ports_ of a cycle each.
    const time_t_ start = port_.acquire(earliest, 1.0 / ports_);
    ++reads_;
    return {data_[static_cast<std::size_t>(addr)], start + 1.0};
  }
  /// Timed write: charges a port slot.
  time_t_ write(index_t addr, double v, time_t_ earliest) {
    assert(addr >= 0 && addr < size());
    const time_t_ start = port_.acquire(earliest, 1.0 / ports_);
    data_[static_cast<std::size_t>(addr)] = v;
    ++writes_;
    return start + 1.0;
  }

  /// Timing of `k` read() calls gated at `earliest` (the values are the
  /// caller's, through peek/data); returns the first read's ready time.
  time_t_ read_n(time_t_ earliest, std::int64_t k) {
    const time_t_ start = port_.acquire_n(earliest, 1.0 / ports_, k);
    reads_ += k;
    return start + 1.0;
  }

  /// Untimed accessors for DMA fills (timing charged on the DMA engine).
  double peek(index_t addr) const { return data_[static_cast<std::size_t>(addr)]; }
  void poke(index_t addr, double v) { data_[static_cast<std::size_t>(addr)] = v; }
  const double* data() const { return data_.data(); }

  /// The port group's timing state (aggregated over `ports()` ports).
  const Resource& port() const { return port_; }

  std::int64_t reads() const { return reads_; }
  std::int64_t writes() const { return writes_; }
  void reset_counters() { reads_ = 0; writes_ = 0; port_.reset(); }
  /// Restore fresh-constructed state: zeroed words (a freshly constructed
  /// store is zero-initialized, and pooled reuse must be byte-identical to
  /// construction), free port, zero counters.
  void reset() {
    std::fill(data_.begin(), data_.end(), 0.0);
    reset_counters();
  }

 private:
  std::vector<double> data_;
  int ports_;
  Resource port_;  ///< aggregated: `ports_` accesses per cycle
  std::int64_t reads_ = 0;
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
