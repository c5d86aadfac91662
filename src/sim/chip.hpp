#pragma once
// Multi-core LAP simulation (Ch. 4): S cores share the on-chip memory;
// each core runs the same schedule on its own row-panel slice of C. The
// on-chip memory is banked with per-core channels, so the aggregate
// bandwidth is statically partitioned and the cores' transfers do not
// serialize against each other (see shared_dma).
#include <functional>
#include <memory>
#include <vector>

#include "arch/configs.hpp"
#include "sim/core.hpp"

namespace lac::sim {

class Chip {
 public:
  explicit Chip(const arch::ChipConfig& cfg);

  const arch::ChipConfig& config() const { return cfg_; }
  int cores() const { return static_cast<int>(cores_.size()); }
  Core& core(int s) { return *cores_[static_cast<std::size_t>(s)]; }

  /// Stream `words` from the shared on-chip memory on behalf of core s,
  /// through that core's y/S words-per-cycle channel. Returns completion
  /// time.
  time_t_ shared_dma(int s, double words, time_t_ earliest);

  /// Stream `words` over the external (off-chip) interface.
  time_t_ offchip_dma(double words, time_t_ earliest);

  time_t_ finish_time() const;
  Stats stats() const;

 private:
  arch::ChipConfig cfg_;
  std::vector<std::unique_ptr<Core>> cores_;
  Resource offchip_if_;  ///< z words/cycle
  std::int64_t offchip_words_ = 0;
};

}  // namespace lac::sim
