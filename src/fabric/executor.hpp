#pragma once
// The fabric Executor interface: one kernel-dispatch API over every backend.
//
// Callers (the LAP driver layer, benches, the batch dispatcher) describe
// work as KernelRequests and never name a backend directly; swapping the
// cycle-exact simulator for the instant analytical model is a constructor
// argument, not a different call path. Both backends dispatch per-kernel
// behaviour through the kernel registry (fabric/kernel_registry.hpp), so
// neither executor knows any kernel by name.
#include "fabric/kernel_request.hpp"

namespace lac::fabric {

class Executor {
 public:
  virtual ~Executor() = default;

  /// Short stable identifier ("sim", "model") recorded in results.
  virtual const char* name() const = 0;

  /// Execute one request. Must be thread-safe for concurrent calls with
  /// independent requests (pool dispatch relies on this). Failures
  /// are reported in-band: ok = false and `error` set, never an exception.
  virtual KernelResult execute(const KernelRequest& req) const = 0;
};

}  // namespace lac::fabric
