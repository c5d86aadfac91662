#include "sim/chip.hpp"

#include <algorithm>
#include <utility>

#include "sim/arena.hpp"

namespace lac::sim {

Chip::Chip(const arch::ChipConfig& cfg) : cfg_(cfg) {
  cores_.reserve(static_cast<std::size_t>(cfg.cores));
  // Each core's private port gets an equal share of the aggregate on-chip
  // bandwidth.
  const double per_core_bw =
      cfg.onchip_bw_words_per_cycle / std::max(1, cfg.cores);
  SimArena& arena = SimArena::local();
  // Four accumulator sets per PE, as a Core constructed with defaults.
  for (int s = 0; s < cfg.cores; ++s) cores_.push_back(arena.acquire(cfg.core, per_core_bw, 4));
}

Chip::~Chip() {
  SimArena& arena = SimArena::local();
  for (auto& c : cores_) arena.release(std::move(c));
}

time_t_ Chip::shared_dma(int s, double words, time_t_ earliest) {
  if (words <= 0.0) return earliest;
  // The on-chip memory is banked with per-core channels (§4.1): aggregate
  // bandwidth is statically partitioned, so each core streams through its
  // private y/S words-per-cycle port with no cross-core serialization.
  return core(s).dma(words, earliest);
}

time_t_ Chip::offchip_dma(double words, time_t_ earliest) {
  if (words <= 0.0) return earliest;
  const time_t_ start =
      offchip_if_.acquire(earliest, words / cfg_.offchip_bw_words_per_cycle);
  offchip_words_ += static_cast<std::int64_t>(words);
  return start + words / cfg_.offchip_bw_words_per_cycle;
}

time_t_ Chip::finish_time() const {
  time_t_ t = offchip_if_.next_free();
  for (const auto& c : cores_) t = std::max(t, c->finish_time());
  return t;
}

Stats Chip::stats() const {
  Stats s;
  for (const auto& c : cores_) s += c->stats();
  s.dma_words += offchip_words_;
  return s;
}

}  // namespace lac::sim
