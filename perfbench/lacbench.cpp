// lacbench: runs one benchmark workload and prints its result as one JSON
// object on stdout (metrics with units and sample counts, attempted and
// failed operations, the workload's record fields, build provenance).
// perfbench/run.py builds this and writes the run record. The workload
// parameters are constants in workloads.cpp.
//
//   lacbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--trace-out <chrome trace path>]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "workloads.hpp"

#ifndef LACB_BUILD_TYPE
#define LACB_BUILD_TYPE "unknown"
#endif
#ifndef LACB_CXX_FLAGS
#define LACB_CXX_FLAGS "unknown"
#endif
#ifndef LACB_COMPILER_ID
#define LACB_COMPILER_ID "unknown"
#endif
#ifndef LACB_COMPILER_VERSION
#define LACB_COMPILER_VERSION "unknown"
#endif

namespace {

using namespace lacb;

int usage(const std::string& why) {
  std::cerr << "lacbench: " << why
            << "\nusage: lacbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <path>]\n";
  return 2;
}

std::string provenance_json() {
  std::ostringstream os;
  os << "{\"cpu_model\": " << json_str(cpu_model())
     << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ", \"compiler_id\": " << json_str(LACB_COMPILER_ID)
     << ", \"compiler_version\": " << json_str(LACB_COMPILER_VERSION)
     << ", \"cxx_flags\": " << json_str(LACB_CXX_FLAGS)
     << ", \"build_type\": " << json_str(LACB_BUILD_TYPE) << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + arg);
      const std::string val = argv[++i];
      if (arg == "--workload") {
        opt.workload = val;
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(val);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (arg == "--trace") {
        opt.trace = val == "1";
      } else if (arg == "--trace-out") {
        opt.trace_out = val;
      } else {
        return usage("unknown argument " + arg);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed argument value");
  }
  if (!have_workload) return usage("--workload is required");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  Output out;
  try {
    if (!run_workload(opt, out)) return usage("unknown workload " + opt.workload);
  } catch (const std::exception& e) {
    std::cerr << "lacbench: " << opt.workload << " failed: " << e.what() << "\n";
    return 1;
  }

  const bool correct = out.attempted > 0 && out.failed == 0 && out.reconciled;
  std::ostringstream os;
  os << "{\n  \"workload\": " << json_str(opt.workload) << ",\n  \"seed\": " << opt.seed
     << ",\n  \"seconds\": " << json_num(opt.seconds)
     << ",\n  \"trace\": " << (opt.trace ? 1 : 0)
     << ",\n  \"correct\": " << (correct ? "true" : "false")
     << ",\n  \"attempted\": " << out.attempted << ",\n  \"failed\": " << out.failed
     << ",\n  \"succeeded\": " << out.attempted - out.failed << ",\n  \"failures\": [";
  for (std::size_t i = 0; i < out.failures.size(); ++i)
    os << (i ? ", " : "") << json_str(out.failures[i]);
  os << "],\n  \"metrics\": " << out.metrics.to_json("  ") << ",\n  \"record\": {";
  for (std::size_t i = 0; i < out.record.size(); ++i)
    os << (i ? ", " : "") << json_str(out.record[i].first) << ": " << out.record[i].second;
  os << "},\n  \"provenance\": " << provenance_json() << "\n}\n";
  std::cout << os.str() << std::flush;
  return 0;
}
