#pragma once
// The four benchmark workloads. Each builds its inputs from the seed, sets
// up several times (reporting the median), measures for the given seconds,
// checks every output, and fills one Output: end-to-end metrics when
// untraced, per-layer metrics from a separate traced pass when traced.
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"

namespace lacb {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace path (traced runs)
};

struct Output {
  Report metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first reasons, for the record
  bool reconciled = true;
  /// Workload-specific run-record fields: name -> raw JSON value.
  std::vector<std::pair<std::string, std::string>> record;
};

/// Run one workload; false when the name is unknown. out.metrics holds
/// every metric of the run's mode (end_to_end_metrics() untraced,
/// per_layer_metrics() traced).
bool run_workload(const Options& opt, Output& out);

/// Every end-to-end and per-layer metric (name, unit), in report order:
/// each run reports all of its mode's metrics (zero with zero samples
/// where the workload does not exercise a layer).
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

}  // namespace lacb
