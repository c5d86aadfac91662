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
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "arch/presets.hpp"
#include "fabric/kernel_registry.hpp"
#include "fabric/sim_executor.hpp"

namespace lac::fabric {
namespace {

struct DigestEntry {
  const char* kind;
  int nr;
  index_t n;
  double bw;
  std::uint64_t seed;
  std::uint64_t digest;
};

constexpr DigestEntry kDigests[] = {
#include "sim_digests.inc"
};

/// FNV-1a over the bytes of every field a simulated result carries.
class Fnv {
 public:
  template <typename T>
  void add(const T& v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (unsigned char b : bytes) h_ = (h_ ^ b) * 1099511628211ull;
  }
  void add(const std::string& s) {
    add(s.size());
    for (char c : s) add(c);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

std::uint64_t digest(const KernelResult& r) {
  Fnv f;
  f.add(r.ok);
  f.add(r.error);
  f.add(r.out.rows());
  f.add(r.out.cols());
  for (index_t i = 0; i < r.out.rows(); ++i)
    for (index_t j = 0; j < r.out.cols(); ++j) f.add(r.out(i, j));
  f.add(r.pivots.size());
  for (index_t p : r.pivots) f.add(p);
  f.add(r.taus.size());
  for (double t : r.taus) f.add(t);
  f.add(r.scalar);
  f.add(r.spectrum.size());
  for (const auto& z : r.spectrum) {
    f.add(z.real());
    f.add(z.imag());
  }
  f.add(r.cycles.value());
  f.add(r.utilization);
  f.add(r.energy_nj.value());
  f.add(r.avg_power_w.value());
  const sim::Stats& s = r.stats;
  for (std::int64_t c : {s.mac_ops, s.mul_ops, s.cmp_ops, s.mem_a_reads, s.mem_a_writes,
                         s.mem_b_reads, s.mem_b_writes, s.rf_reads, s.rf_writes,
                         s.row_bus_xfers, s.col_bus_xfers, s.sfu_ops, s.dma_words})
    f.add(c);
  return f.value();
}

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
  for (const DigestEntry& e : kDigests)
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

}  // namespace
}  // namespace lac::fabric
