#pragma once
// The mesh's per-PE timing state as per-field lane arrays.
//
// Each field (a store port group's next_free, an accumulator's ready, a
// MAC op count, ...) is one contiguous array over the PEs of an nr x nr
// mesh, lane r * nr + c. The per-op views (LocalStore's port, MacPipeline)
// hold one pointer per field into their lane; rank-1 sweeps step whole
// rows of lanes in place (fabric/stream_schedule.cpp). The row buses are
// lanes too (lane r).
#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/engine.hpp"

namespace lac::sim {

/// One lane's store port group: the time the group is next free and its
/// access count, one pointer per field.
struct PortLane {
  time_t_* next_free = nullptr;
  std::int64_t* ops = nullptr;

  /// Claim the group no earlier than `earliest` for `duration` cycles;
  /// returns the start.
  time_t_ acquire(time_t_ earliest, time_t_ duration) {
    const time_t_ start = std::max(earliest, *next_free);
    *next_free = start + duration;
    ++*ops;
    return start;
  }
};

struct MeshLanes {
  /// Word fields: the time each port group and the MAC issue port is next
  /// free, then kWordsPerAcc fields per accumulator from kAccWords on.
  enum Word : std::size_t {
    kMemAFree,   ///< MEM-A port group
    kMemBFree,   ///< MEM-B port group
    kIssueFree,  ///< MAC issue port
    kAccWords,   ///< accumulator 0's first word
  };
  /// An accumulator's words: its value, the time the value is ready (after
  /// the pipeline drain) and the time the next chained MAC may issue.
  enum AccWord : std::size_t { kAccValue, kAccReady, kAccChain, kWordsPerAcc };
  /// Count fields: store port accesses, then MAC, multiply/add and
  /// compare ops.
  enum Count : std::size_t { kMemAOps, kMemBOps, kMacOps, kMulOps, kCmpOps, kCountFields };

  MeshLanes(int nr, int accumulators)
      : pes(static_cast<std::size_t>(nr) * static_cast<std::size_t>(nr)),
        accumulators(0),
        row_bus(static_cast<std::size_t>(nr)) {
    reset(accumulators);
  }

  /// Restore fresh-constructed state with `accs` per PE (views must
  /// re-bind: the word array may move).
  void reset(int accs) {
    assert(accs > 0);
    accumulators = accs;
    words.assign(acc_word(accs) * pes, 0.0);
    counts.assign(kCountFields * pes, 0);
    row_bus.reset();
  }

  /// Field `f` (a Word, or acc_word()) over all lanes.
  double* word(std::size_t f) { return words.data() + f * pes; }
  const double* word(std::size_t f) const { return words.data() + f * pes; }
  std::int64_t* count(std::size_t f) { return counts.data() + f * pes; }
  const std::int64_t* count(std::size_t f) const { return counts.data() + f * pes; }
  /// Word field `f` of accumulator `a`.
  static constexpr std::size_t acc_word(int a, AccWord f = kAccValue) {
    return kAccWords + kWordsPerAcc * static_cast<std::size_t>(a) + f;
  }
  /// Lane `lane` of the port group whose fields are `free` and `ops`.
  PortLane port(Word free, Count ops, std::size_t lane) {
    return {word(free) + lane, count(ops) + lane};
  }

  std::size_t pes;
  int accumulators;
  std::vector<double> words;
  std::vector<std::int64_t> counts;
  ResourceLanes row_bus;
};

}  // namespace lac::sim
