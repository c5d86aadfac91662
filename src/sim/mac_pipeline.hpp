#pragma once
// Pipelined fused multiply-accumulate unit with a local accumulator
// (§3.2): throughput of one MAC per cycle via delayed normalization, so
// back-to-back accumulations into the same accumulator issue every cycle,
// while any consumer of the accumulated value (or of a general FMA result)
// waits the full pipeline depth p.
#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>

#include "sim/engine.hpp"
#include "sim/mesh_lanes.hpp"

namespace lac::sim {

class MacPipeline {
 public:
  /// A p-stage pipeline whose state is lane `lane` of `lanes`.
  MacPipeline(int pipeline_stages, MeshLanes& lanes, std::size_t lane)
      : depth_(pipeline_stages) {
    bind(lanes, lane);
  }

  time_t_ depth() const { return depth_; }

  // The arithmetic ops below are defined in the header: they are the
  // innermost operations of every kernel schedule (millions of calls per
  // serving request stream), and keeping them inlineable is worth more
  // than any other single optimization on the sim path.

  /// acc[idx] += a.v * b.v. Single-cycle accumulation: a chained MAC into
  /// the same accumulator may issue one cycle after the previous one.
  /// Returns the issue time.
  time_t_ mac_into_acc(int idx, TimedVal a, TimedVal b, time_t_ earliest = 0.0) {
    const std::size_t at = acc_at(idx);
    const time_t_ operands = std::max({a.ready, b.ready, acc_chain_[at], earliest});
    const time_t_ issue = claim(operands, 1.0);
    acc_value_[at] = std::fma(a.v, b.v, acc_value_[at]);
    acc_ready_[at] = issue + depth_;
    acc_chain_[at] = issue + 1.0;  // delayed normalization: 1 acc/cycle
    ++*mac_ops_;
    return issue;
  }

  /// General 3-input FMA: returns a*b + c as a new value, ready p cycles
  /// after issue (used by TRSM updates, butterflies, ...).
  TimedVal fma(TimedVal a, TimedVal b, TimedVal c, time_t_ earliest = 0.0) {
    const time_t_ operands = std::max({a.ready, b.ready, c.ready, earliest});
    const time_t_ issue = claim(operands, 1.0);
    ++*mac_ops_;
    return {std::fma(a.v, b.v, c.v), issue + depth_};
  }

  /// 2-input multiply (counted separately from MACs in the stats).
  TimedVal mul(TimedVal a, TimedVal b, time_t_ earliest = 0.0) {
    const time_t_ operands = std::max({a.ready, b.ready, earliest});
    const time_t_ issue = claim(operands, 1.0);
    ++*mul_ops_;
    return {a.v * b.v, issue + depth_};
  }
  TimedVal add(TimedVal a, TimedVal b, time_t_ earliest = 0.0) {
    const time_t_ operands = std::max({a.ready, b.ready, earliest});
    const time_t_ issue = claim(operands, 1.0);
    ++*mul_ops_;
    return {a.v + b.v, issue + depth_};
  }

  /// Magnitude compare on the MAC datapath. With the comparator extension
  /// it is a 1-cycle dedicated op; without it, emulation costs two issue
  /// slots and a pipeline drain before the outcome is known.
  TimedVal compare_abs_max(TimedVal a, TimedVal b, bool comparator_ext,
                           time_t_ earliest = 0.0) {
    const time_t_ operands = std::max({a.ready, b.ready, earliest});
    ++*cmp_ops_;
    if (comparator_ext) {
      // Dedicated exponent/mantissa comparator beside the MAC: 1 cycle.
      const time_t_ issue = claim(operands, 1.0);
      return {std::abs(a.v) >= std::abs(b.v) ? a.v : b.v, issue + 1.0};
    }
    // Emulated: subtract magnitudes on the MAC and examine the sign; costs
    // two issue slots and the result is only known after the pipeline drain.
    const time_t_ issue = claim(operands, 2.0);
    return {std::abs(a.v) >= std::abs(b.v) ? a.v : b.v, issue + 2.0 + depth_};
  }

  /// Read the accumulated value (forces normalization: pipeline drain).
  TimedVal read_acc(int idx, time_t_ earliest = 0.0) const {
    const std::size_t at = acc_at(idx);
    return {acc_value_[at], std::max(acc_ready_[at], earliest)};
  }
  /// Preload an accumulator (e.g. with an incoming C element).
  void set_acc(int idx, TimedVal v) {
    const std::size_t at = acc_at(idx);
    acc_value_[at] = v.v;
    acc_ready_[at] = v.ready;
    acc_chain_[at] = v.ready;
  }

  std::int64_t mac_ops() const { return *mac_ops_; }
  std::int64_t mul_ops() const { return *mul_ops_; }
  std::int64_t cmp_ops() const { return *cmp_ops_; }
  time_t_ issue_port_free() const { return *issue_free_; }
  /// Point at lane `lane` of `lanes` (its arrays moved or resized).
  void bind(MeshLanes& lanes, std::size_t lane) {
    using M = MeshLanes;
    issue_free_ = lanes.word(M::kIssueFree) + lane;
    mac_ops_ = lanes.count(M::kMacOps) + lane;
    mul_ops_ = lanes.count(M::kMulOps) + lane;
    cmp_ops_ = lanes.count(M::kCmpOps) + lane;
    acc_value_ = lanes.word(M::acc_word(0, M::kAccValue)) + lane;
    acc_ready_ = lanes.word(M::acc_word(0, M::kAccReady)) + lane;
    acc_chain_ = lanes.word(M::acc_word(0, M::kAccChain)) + lane;
    acc_stride_ = M::kWordsPerAcc * lanes.pes;
    accumulators_ = lanes.accumulators;
  }

  /// Block the issue port (e.g. software-emulated divide on this MAC).
  time_t_ occupy(time_t_ earliest, time_t_ cycles) { return claim(earliest, cycles); }

 private:
  /// Claim the issue port no earlier than `earliest` for `cycles` cycles;
  /// returns the issue time.
  time_t_ claim(time_t_ earliest, time_t_ cycles) {
    const time_t_ issue = std::max(earliest, *issue_free_);
    *issue_free_ = issue + cycles;
    return issue;
  }
  /// Offset of accumulator `idx`'s fields from accumulator 0's.
  std::size_t acc_at(int idx) const {
    assert(idx >= 0 && idx < accumulators_);
    return static_cast<std::size_t>(idx) * acc_stride_;
  }

  time_t_ depth_;  ///< pipeline depth p, as a time
  time_t_* issue_free_ = nullptr;  ///< the issue port's next free cycle
  std::int64_t* mac_ops_ = nullptr;
  std::int64_t* mul_ops_ = nullptr;
  std::int64_t* cmp_ops_ = nullptr;
  double* acc_value_ = nullptr;  ///< accumulator 0's fields in this lane
  double* acc_ready_ = nullptr;
  double* acc_chain_ = nullptr;
  std::size_t acc_stride_ = 0;  ///< words from one accumulator's field to the next's
  int accumulators_ = 0;
};

}  // namespace lac::sim
