#pragma once
// Digests of simulated results, shared by the tests that pin the simulator
// bit for bit (test_sim_digest.cpp, test_rank1_sweep.cpp): an FNV-1a hash
// over every field a KernelResult carries, the table line a digest table
// takes, and the CHIP_GEMM blocking grid of tests/chip_gemm_digests.inc.
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

#include "arch/presets.hpp"
#include "common/random.hpp"
#include "fabric/kernel_request.hpp"

namespace lac::test {

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

inline std::uint64_t digest(const fabric::KernelResult& r) {
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

/// One entry of tests/sim_digests.inc: a registered kind's sized_request.
struct DigestEntry {
  const char* kind;
  int nr;
  index_t n;
  double bw;
  std::uint64_t seed;
  std::uint64_t digest;
};

/// One CHIP_GEMM blocking of tests/chip_gemm_digests.inc: the mesh width,
/// the cores, the on-chip bandwidth (words/cycle over all cores) and the
/// mc x kc blocking.
struct ChipGemmBlocking {
  int nr;
  int cores;
  double onchip_bw;
  index_t mc;
  index_t kc;
};

struct ChipGemmDigest {
  ChipGemmBlocking blocking;
  std::uint64_t digest;
};

/// The request of blocking `b`: two row tiles per core, two kc panels, and
/// 5 + cores column blocks, so both parities of the blocks left after the
/// first two occur.
inline fabric::KernelRequest chip_gemm_request(const ChipGemmBlocking& b) {
  arch::ChipConfig chip = arch::lap_s8();
  chip.cores = b.cores;
  chip.core = b.nr == 8 ? arch::lac_8x8_dp() : arch::lac_4x4_dp();
  chip.onchip_bw_words_per_cycle = b.onchip_bw;
  const index_t m = 2 * b.cores * b.mc;
  const index_t n = (5 + b.cores) * b.nr;
  const index_t k = 2 * b.kc;
  const std::uint64_t seed = static_cast<std::uint64_t>(
      ((b.nr * 10 + b.cores) * 100 + static_cast<int>(b.onchip_bw)) * 1000 + b.mc * 10 + b.kc);
  return fabric::make_chip_gemm(chip, b.mc, b.kc,
                                fabric::SharedMatrix(random_matrix(m, k, seed)),
                                fabric::SharedMatrix(random_matrix(k, n, seed + 1)),
                                fabric::SharedMatrix(random_matrix(m, n, seed + 2)));
}

inline std::string table_line(const ChipGemmBlocking& b, std::uint64_t d) {
  std::ostringstream os;
  os << "    {{" << b.nr << ", " << b.cores << ", " << b.onchip_bw << ", " << b.mc << ", "
     << b.kc << "}, 0x" << std::hex << d << "ull},";
  return os.str();
}

}  // namespace lac::test
