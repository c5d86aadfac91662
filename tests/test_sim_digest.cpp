// Kernel-level differential test of the simulator: every registered kind
// over the sized_request grid (n 4..64, bandwidths including the
// non-dyadic 0.3 and 1.7 words/cycle, three seeds, 4x4 and 8x8 cores) runs
// on the SimExecutor and is digested -- outputs, pivots, taus, scalar,
// spectrum, cycles, utilization, energy and every sim::Stats counter, bit
// for bit. tests/sim_digests.inc holds the digests of the op-by-op
// simulator that the rank-1 steady-state fast-forward and the FMA clones
// replaced, so any drift in a value or a cycle fails here. A mismatch
// prints the line the table would need, in table format.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "arch/presets.hpp"
#include "fabric/kernel_registry.hpp"
#include "fabric/sim_executor.hpp"
#include "sim_digest.hpp"

namespace lac::fabric {
namespace {

constexpr test::DigestEntry kDigests[] = {
#include "sim_digests.inc"
};

constexpr test::ChipGemmDigest kChipGemmDigests[] = {
#include "chip_gemm_digests.inc"
};

using test::digest;

std::string table_line(const char* kind, int nr, index_t n, double bw,
                       std::uint64_t seed, std::uint64_t d) {
  std::ostringstream os;
  os << "    {\"" << kind << "\", " << nr << ", " << n << ", " << bw << ", " << seed
     << ", 0x" << std::hex << d << "ull},";
  return os.str();
}

TEST(SimDigest, EveryKindMatchesTheOpByOpSimulator) {
  std::map<std::tuple<std::string, int, index_t, double, std::uint64_t>, std::uint64_t>
      expected;
  for (const test::DigestEntry& e : kDigests)
    expected[{e.kind, e.nr, e.n, e.bw, e.seed}] = e.digest;

  struct Grid {
    arch::CoreConfig cfg;
    std::vector<index_t> ns;
    std::vector<double> bws;
    std::vector<std::uint64_t> seeds;
  };
  const Grid grids[] = {
      {arch::lac_4x4_dp(), {4, 8, 16, 24, 32, 48, 64}, {0.3, 0.5, 1.0, 1.7, 4.0, 8.0},
       {1, 2, 3}},
      {arch::lac_8x8_dp(), {8, 16, 32, 64}, {0.5, 1.7, 4.0}, {1}},
  };
  const SimExecutor sim;
  int checked = 0;
  std::vector<std::string> mismatches;
  for (const Grid& g : grids)
    for (KernelKind kind : registered_kernel_kinds()) {
      const KernelTraits& t = kernel_traits(kind);
      for (index_t n : g.ns)
        for (double bw : g.bws)
          for (std::uint64_t seed : g.seeds) {
            const std::uint64_t d = digest(sim.execute(t.sized_request(g.cfg, bw, n, seed)));
            auto it = expected.find({t.name, g.cfg.nr, n, bw, seed});
            if (it == expected.end() || it->second != d)
              mismatches.push_back(table_line(t.name, g.cfg.nr, n, bw, seed, d));
            ++checked;
          }
    }
  EXPECT_EQ(checked, 10 * (7 * 6 * 3 + 4 * 3));
  EXPECT_EQ(expected.size(), static_cast<std::size_t>(checked));
  std::ostringstream lines;
  for (const std::string& m : mismatches) lines << m << "\n";
  EXPECT_TRUE(mismatches.empty()) << mismatches.size() << " of " << checked
                                  << " results differ from the table:\n"
                                  << lines.str();
}

TEST(SimDigest, ChipGemmBlockingsMatchTheirDigests) {
  // CHIP_GEMM beyond the sized_request point (2 cores, 4 words/cycle each,
  // mc = kc = nr): 1-4 cores, on-chip bandwidths whose per-core block
  // transfers land on the dyadic grid or off it (7 words/cycle over 3
  // cores), and every mc, kc in {nr, 2nr, 4nr}. The table was recorded
  // with the simulator that stepped every column block and staged every
  // value through MEM-A, MEM-B and the accumulators.
  std::map<std::tuple<int, int, double, index_t, index_t>, std::uint64_t> expected;
  for (const test::ChipGemmDigest& e : kChipGemmDigests) {
    const test::ChipGemmBlocking& b = e.blocking;
    expected[{b.nr, b.cores, b.onchip_bw, b.mc, b.kc}] = e.digest;
  }
  const SimExecutor sim;
  int checked = 0;
  std::vector<std::string> mismatches;
  for (int nr : {4, 8})
    for (int cores = 1; cores <= 4; ++cores)
      for (double bw : {1.0, 6.0, 7.0, 8.0})
        for (index_t mc : {nr, 2 * nr, 4 * nr})
          for (index_t kc : {nr, 2 * nr, 4 * nr}) {
            const test::ChipGemmBlocking b{nr, cores, bw, mc, kc};
            const KernelResult r = sim.execute(test::chip_gemm_request(b));
            EXPECT_TRUE(r.ok) << r.error;
            const std::uint64_t d = digest(r);
            auto it = expected.find({nr, cores, bw, mc, kc});
            if (it == expected.end() || it->second != d)
              mismatches.push_back(test::table_line(b, d));
            ++checked;
          }
  EXPECT_EQ(checked, 2 * 4 * 4 * 3 * 3);
  EXPECT_EQ(expected.size(), static_cast<std::size_t>(checked));
  std::ostringstream lines;
  for (const std::string& m : mismatches) lines << m << "\n";
  EXPECT_TRUE(mismatches.empty()) << mismatches.size() << " of " << checked
                                  << " results differ from the table:\n"
                                  << lines.str();
}

}  // namespace
}  // namespace lac::fabric
