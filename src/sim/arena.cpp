#include "sim/arena.hpp"

#include "obs/metrics.hpp"

namespace lac::sim {
namespace {

/// Pool-reuse counters, resolved once per process (registry references are
/// stable) so the acquire path never touches the registry lock.
struct ArenaMetrics {
  obs::Counter& core_hits;
  obs::Counter& core_misses;

  static ArenaMetrics& instance() {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    static ArenaMetrics* m = new ArenaMetrics{
        reg.counter("lac.sim.arena.core_hits"),
        reg.counter("lac.sim.arena.core_misses")};
    return *m;
  }
};

/// Full-config equality: a pooled core may only be reused for a config it
/// was constructed from, so EVERY CoreConfig field participates. A new
/// field added to arch::CoreConfig must be compared here (the arena test
/// sweeps each field to catch omissions).
bool config_equal(const arch::CoreConfig& a, const arch::CoreConfig& b) {
  return a.nr == b.nr && a.pe.precision == b.pe.precision &&
         a.pe.pipeline_stages == b.pe.pipeline_stages &&
         a.pe.clock_ghz == b.pe.clock_ghz &&
         a.pe.mem_a_kbytes == b.pe.mem_a_kbytes &&
         a.pe.mem_a_ports == b.pe.mem_a_ports &&
         a.pe.mem_b_kbytes == b.pe.mem_b_kbytes &&
         a.pe.mem_b_ports == b.pe.mem_b_ports &&
         a.pe.register_file_entries == b.pe.register_file_entries &&
         a.pe.extensions.comparator == b.pe.extensions.comparator &&
         a.pe.extensions.extended_exponent == b.pe.extensions.extended_exponent &&
         a.bus_latency == b.bus_latency && a.sfu == b.sfu &&
         a.sfu_latency_recip == b.sfu_latency_recip &&
         a.sfu_latency_rsqrt == b.sfu_latency_rsqrt &&
         a.sfu_latency_sqrt == b.sfu_latency_sqrt &&
         a.sw_emulation_cycles == b.sw_emulation_cycles;
}

}  // namespace

SimArena& SimArena::local() {
  static thread_local SimArena arena;
  return arena;
}

std::unique_ptr<Core> SimArena::acquire(const arch::CoreConfig& cfg,
                                        double bw_words_per_cycle,
                                        int accumulators) {
  ArenaMetrics& metrics = ArenaMetrics::instance();
  for (PoolEntry& entry : pool_) {
    if (!config_equal(entry.cfg, cfg) || entry.free.empty()) continue;
    std::unique_ptr<Core> core = std::move(entry.free.back());
    entry.free.pop_back();
    core->reset(bw_words_per_cycle, accumulators);
    metrics.core_hits.add();
    return core;
  }
  metrics.core_misses.add();
  // lint-allow: hot-alloc (pool miss: first request for this config on
  // this worker; subsequent requests reuse the pooled core)
  return std::make_unique<Core>(cfg, bw_words_per_cycle, accumulators);
}

void SimArena::release(std::unique_ptr<Core> core) {
  if (!core) return;
  const arch::CoreConfig& cfg = core->config();
  for (PoolEntry& entry : pool_) {
    if (!config_equal(entry.cfg, cfg)) continue;
    entry.free.push_back(std::move(core));
    return;
  }
  pool_.push_back(PoolEntry{cfg, {}});
  pool_.back().free.push_back(std::move(core));
}

std::size_t SimArena::pooled() const {
  std::size_t n = 0;
  for (const PoolEntry& entry : pool_) n += entry.free.size();
  return n;
}

}  // namespace lac::sim
