#pragma once
// Pipelined fused multiply-accumulate unit with a local accumulator
// (§3.2): throughput of one MAC per cycle via delayed normalization, so
// back-to-back accumulations into the same accumulator issue every cycle,
// while any consumer of the accumulated value (or of a general FMA result)
// waits the full pipeline depth p.
#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "sim/engine.hpp"

namespace lac::sim {

class MacPipeline {
 public:
  MacPipeline(int pipeline_stages, int accumulators)
      : p_(pipeline_stages), accs_(static_cast<std::size_t>(accumulators)) {}

  int depth() const { return p_; }

  // The arithmetic ops below are defined in the header: they are the
  // innermost operations of every kernel schedule (millions of calls per
  // serving request stream), and keeping them inlineable is worth more
  // than any other single optimization on the sim path.

  /// acc[idx] += a.v * b.v. Single-cycle accumulation: a chained MAC into
  /// the same accumulator may issue one cycle after the previous one.
  /// Returns the issue time.
  time_t_ mac_into_acc(int idx, TimedVal a, TimedVal b, time_t_ earliest = 0.0) {
    assert(idx >= 0 && idx < static_cast<int>(accs_.size()));
    Acc& acc = accs_[static_cast<std::size_t>(idx)];
    const time_t_ operands = std::max({a.ready, b.ready, acc.chain_free, earliest});
    const time_t_ issue = issue_.acquire(operands, 1.0);
    acc.value = std::fma(a.v, b.v, acc.value);
    acc.ready = issue + p_;
    acc.chain_free = issue + 1.0;  // delayed normalization: 1 acc/cycle
    ++mac_ops_;
    return issue;
  }

  /// Timing of `k` chained mac_into_acc(idx, a_j, b_j) calls whose
  /// operands are ready by the issue slot each one gets: the chain then
  /// issues back to back. Returns the first issue time. The values are the
  /// caller's (acc_value / set_acc_value, same fma order).
  time_t_ mac_chain_n(int idx, std::int64_t k) {
    assert(idx >= 0 && idx < static_cast<int>(accs_.size()) && k > 0);
    Acc& acc = accs_[static_cast<std::size_t>(idx)];
    const time_t_ first = issue_.acquire_n(std::max(acc.chain_free, 0.0), 1.0, k);
    const time_t_ last = first + static_cast<time_t_>(k - 1);
    acc.ready = last + p_;
    acc.chain_free = last + 1.0;
    mac_ops_ += k;
    return first;
  }
  /// Value half of mac_into_acc, for sweeps that run the fma chain apart
  /// from its timing.
  double acc_value(int idx) const {
    assert(idx >= 0 && idx < static_cast<int>(accs_.size()));
    return accs_[static_cast<std::size_t>(idx)].value;
  }
  void set_acc_value(int idx, double v) {
    assert(idx >= 0 && idx < static_cast<int>(accs_.size()));
    accs_[static_cast<std::size_t>(idx)].value = v;
  }
  /// When the next chained MAC into accumulator `idx` may issue.
  time_t_ acc_chain_free(int idx) const {
    assert(idx >= 0 && idx < static_cast<int>(accs_.size()));
    return accs_[static_cast<std::size_t>(idx)].chain_free;
  }

  /// General 3-input FMA: returns a*b + c as a new value, ready p cycles
  /// after issue (used by TRSM updates, butterflies, ...).
  TimedVal fma(TimedVal a, TimedVal b, TimedVal c, time_t_ earliest = 0.0) {
    const time_t_ operands = std::max({a.ready, b.ready, c.ready, earliest});
    const time_t_ issue = issue_.acquire(operands, 1.0);
    ++mac_ops_;
    return {std::fma(a.v, b.v, c.v), issue + p_};
  }

  /// 2-input multiply (counted separately from MACs in the stats).
  TimedVal mul(TimedVal a, TimedVal b, time_t_ earliest = 0.0) {
    const time_t_ operands = std::max({a.ready, b.ready, earliest});
    const time_t_ issue = issue_.acquire(operands, 1.0);
    ++mul_ops_;
    return {a.v * b.v, issue + p_};
  }
  TimedVal add(TimedVal a, TimedVal b, time_t_ earliest = 0.0) {
    const time_t_ operands = std::max({a.ready, b.ready, earliest});
    const time_t_ issue = issue_.acquire(operands, 1.0);
    ++mul_ops_;
    return {a.v + b.v, issue + p_};
  }

  /// Magnitude compare on the MAC datapath. With the comparator extension
  /// it is a 1-cycle dedicated op; without it, emulation costs two issue
  /// slots and a pipeline drain before the outcome is known.
  TimedVal compare_abs_max(TimedVal a, TimedVal b, bool comparator_ext,
                           time_t_ earliest = 0.0) {
    const time_t_ operands = std::max({a.ready, b.ready, earliest});
    ++cmp_ops_;
    if (comparator_ext) {
      // Dedicated exponent/mantissa comparator beside the MAC: 1 cycle.
      const time_t_ issue = issue_.acquire(operands, 1.0);
      return {std::abs(a.v) >= std::abs(b.v) ? a.v : b.v, issue + 1.0};
    }
    // Emulated: subtract magnitudes on the MAC and examine the sign; costs
    // two issue slots and the result is only known after the pipeline drain.
    const time_t_ issue = issue_.acquire(operands, 2.0);
    return {std::abs(a.v) >= std::abs(b.v) ? a.v : b.v, issue + 2.0 + p_};
  }

  /// Read the accumulated value (forces normalization: pipeline drain).
  TimedVal read_acc(int idx, time_t_ earliest = 0.0) const {
    assert(idx >= 0 && idx < static_cast<int>(accs_.size()));
    const Acc& acc = accs_[static_cast<std::size_t>(idx)];
    return {acc.value, std::max(acc.ready, earliest)};
  }
  /// Preload an accumulator (e.g. with an incoming C element).
  void set_acc(int idx, TimedVal v) {
    assert(idx >= 0 && idx < static_cast<int>(accs_.size()));
    Acc& acc = accs_[static_cast<std::size_t>(idx)];
    acc.value = v.v;
    acc.ready = v.ready;
    acc.chain_free = v.ready;
  }

  /// Restore fresh-constructed state (the pipeline depth is config-bound
  /// and survives); `accumulators` resizes the accumulator register set so
  /// one pooled PE serves kernels with different double-buffering needs.
  void reset(int accumulators) {
    accs_.assign(static_cast<std::size_t>(accumulators), Acc{});
    issue_.reset();
    mac_ops_ = 0;
    mul_ops_ = 0;
    cmp_ops_ = 0;
  }

  std::int64_t mac_ops() const { return mac_ops_; }
  std::int64_t mul_ops() const { return mul_ops_; }
  std::int64_t cmp_ops() const { return cmp_ops_; }
  time_t_ issue_port_free() const { return issue_.next_free(); }
  time_t_ busy_cycles() const { return issue_.busy_cycles(); }
  const Resource& issue_port() const { return issue_; }

  /// Block the issue port (e.g. software-emulated divide on this MAC).
  time_t_ occupy(time_t_ earliest, time_t_ cycles) { return issue_.acquire(earliest, cycles); }

 private:
  struct Acc {
    double value = 0.0;
    time_t_ ready = 0.0;       ///< when the value can be consumed
    time_t_ chain_free = 0.0;  ///< when the next chained MAC may issue
  };

  int p_;
  std::vector<Acc> accs_;
  Resource issue_;
  std::int64_t mac_ops_ = 0;
  std::int64_t mul_ops_ = 0;
  std::int64_t cmp_ops_ = 0;
};

}  // namespace lac::sim
