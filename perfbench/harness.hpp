#pragma once
// Shared plumbing of the fabric benchmark: samples and percentiles, result
// digests and the correctness checker, the timing Executor decorator that
// the pool paths run, and the benchmark's own span recorder with its
// self-time attribution.
//
// Everything here sits outside src/: layers are timed from the outside, by
// calls into their public functions, and spans are recorded around those
// calls. The recorder keeps every span in memory (per thread, no locking)
// and attributes each operation's wall time to the spans that cover it;
// the same spans go to the obs::TraceSession rings for the Chrome export.
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "fabric/executor.hpp"
#include "fabric/kernel_registry.hpp"

namespace lacb {

using lac::fabric::KernelRequest;
using lac::fabric::KernelResult;

/// Steady-clock nanoseconds (the clock every benchmark interval uses).
std::uint64_t now_ns();
/// Busy-wait until `t_ns` (sleeping while it is more than 5 ms away).
void wait_until_ns(std::uint64_t t_ns);

// ---- samples ------------------------------------------------------------

/// A sample of measurements with nearest-rank percentiles. Count, sum and
/// mean are exact; percentiles come from a uniform reservoir of at most
/// kCapacity values, so memory stays flat however many operations a run
/// completes (peak RSS must not grow with host speed).
class Samples {
 public:
  static constexpr std::size_t kCapacity = 1 << 16;

  void add(double v);
  std::size_t count() const { return static_cast<std::size_t>(n_); }
  double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }
  /// Nearest-rank percentile, p in [0, 1]; 0 on an empty sample.
  double pct(double p);

 private:
  std::vector<double> v_;
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
  std::uint64_t rng_ = 0x9e3779b97f4a7c15ull;
  bool sorted_ = true;
};

/// Median of a small set (the repeated set-up times).
double median(std::vector<double> v);

// ---- metrics report -----------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

/// Every metric of one mode, in report order, prefilled with zero and zero
/// samples: a workload sets what it measures and the rest reports as not
/// exercised. JSON-serialisable.
class Report {
 public:
  Report() = default;
  /// (name, unit) pairs in report order.
  explicit Report(const std::vector<std::pair<std::string, std::string>>& names);
  /// Set a declared metric; throws std::logic_error on an unknown name.
  void set(const std::string& name, double value, std::uint64_t samples);
  std::string to_json(const std::string& indent) const;

 private:
  std::vector<Metric> metrics_;
};

/// JSON string literal with escapes.
std::string json_str(const std::string& s);
/// JSON number with round-trip precision (non-finite values become null).
std::string json_num(double v);

// ---- digests and the correctness checker --------------------------------

/// Every output field (out, pivots, taus, scalar, spectrum) plus the
/// simulated-cost fingerprint (cycles, utilization, energy/power/area and
/// every sim::Stats counter), bit for bit: what "byte-identical results"
/// means here.
std::uint64_t result_digest(const KernelResult& r);

/// Digest of a matrix's shape and bytes.
std::uint64_t matrix_digest(const lac::MatrixD& m);
/// Fold `v` into the running digest `h`.
std::uint64_t combine_digest(std::uint64_t h, std::uint64_t v);

/// "" when `sim`'s numerics match the host reference `ref` (relative
/// Frobenius error <= tol on matrices and spectra, exact pivots).
std::string compare_numerics(const KernelResult& sim, const KernelResult& ref,
                             double tol = 1e-9);

/// Counts attempted and failed operations. Every in-band ok=false, digest
/// mismatch or numerics mismatch is one failed operation; the first few
/// reasons are kept for the run record. Thread-safe.
class Checker {
 public:
  /// One attempted operation that produced `r`: fails it when !r.ok or
  /// when its result digest differs from `expected`. Returns success.
  bool check(const KernelResult& r, std::uint64_t expected, const char* what);
  /// One attempted operation with an already-decided verdict.
  bool verdict(bool ok, const std::string& why);

  std::uint64_t attempted() const { return attempted_.load(); }
  std::uint64_t failed() const { return failed_.load(); }
  std::vector<std::string> reasons() const;

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  mutable std::mutex mu_;
  std::vector<std::string> reasons_;
};

// ---- spans and self-time attribution ------------------------------------

/// The spans the benchmark records. Each kind belongs to one layer (a
/// module of the repository, or the harness itself).
enum class SpanKind : std::uint8_t {
  Op,               ///< one operation, end to end (root; its self time is unattributed)
  HarnessCheck,     ///< output verification
  GenLate,          ///< open loop: due time -> send
  FabricExecute,    ///< a decomposed Executor::execute
  FabricValidate,   ///< fabric::validate
  SimRun,           ///< registry sim_run hook
  PowerEnergy,      ///< registry sim_energy hook
  BlasReference,    ///< registry reference_run hook
  ServingSignature, ///< CostCache::signature
  ServingEstimate,  ///< CostCache::estimate
  ModelCost,        ///< model_cost
  ServingSubmit,    ///< AsyncExecutor::submit
  PoolQueueWait,    ///< submit returned -> execute starts on a worker
  PoolComplete,     ///< execute ended -> completion hook
  SchedSubmit,      ///< GraphScheduler::submit
  SchedWait,        ///< submit returned -> first unit executes
  SchedRun,         ///< first unit starts -> last unit ends (gaps: dispatch)
  kCount
};
const char* span_name(SpanKind k);
const char* span_layer(SpanKind k);

struct SpanRec {
  std::uint64_t op = 0;      ///< operation id (shared by all its spans)
  std::uint64_t start = 0, end = 0;
  std::uint32_t id = 0;      ///< 0 = the op's root; others unique per run
  std::uint32_t parent = 0;  ///< 0 (or an id absent from the op) = the root
  SpanKind kind = SpanKind::Op;
};

/// Per-thread buffers are keyed by their owner's generation, not its
/// address: an owner re-created at the same address must not reuse a
/// stale buffer.
std::uint64_t next_generation();

/// Spans the executing worker records have this parent: the op's
/// SchedRun span when there is one, else (being absent) the root.
inline constexpr std::uint32_t kExecContext = 1;
/// First id handed out for ordinary spans (ids below are reserved).
inline constexpr std::uint32_t kFirstSpanId = 16;

/// Per-thread span buffers plus the attribution of self time. Spans also
/// go to the active obs::TraceSession (args.parent carries the op id, so
/// Perfetto groups an operation's spans).
class SpanRecorder {
 public:
  /// Record a span (any thread). Returns its id for its own children.
  std::uint32_t add(std::uint64_t op, SpanKind k, std::uint64_t start,
                    std::uint64_t end, std::uint32_t parent = 0);
  /// A fresh id, for a span whose children end before it does.
  std::uint32_t reserve_id() { return next_id_.fetch_add(1); }
  /// As add(), with an id from reserve_id() or a reserved one (0 = the
  /// root, kExecContext).
  void add_with_id(std::uint32_t id, std::uint64_t op, SpanKind k,
                   std::uint64_t start, std::uint64_t end,
                   std::uint32_t parent = 0);
  /// Attribute every recorded span (their ops must be complete): each
  /// instant of an op's root interval goes to the deepest spans active
  /// then, split evenly when several run in parallel; instants no child
  /// covers are the root's self time (unattributed). Clears the buffers.
  void attribute();

  struct KindTotals {
    Samples dur_us;        ///< span durations
    double self_ns = 0.0;  ///< attributed self time
  };
  const KindTotals& totals(SpanKind k) const {
    return totals_[static_cast<std::size_t>(k)];
  }
  /// Summed root (end-to-end) time and the number of ops attributed.
  double root_ns() const { return root_ns_; }
  std::uint64_t ops() const { return ops_; }

 private:
  std::vector<SpanRec>& local();
  void attribute_op(std::vector<SpanRec>::iterator begin,
                    std::vector<SpanRec>::iterator end);

  const std::uint64_t generation_ = next_generation();
  std::atomic<std::uint32_t> next_id_{kFirstSpanId};
  std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<SpanRec>>> buffers_;
  std::array<KindTotals, static_cast<std::size_t>(SpanKind::kCount)> totals_{};
  double root_ns_ = 0.0;
  std::uint64_t ops_ = 0;
};

/// One span timed by scope: records [construction, destruction) under
/// `parent` when a recorder is given; free otherwise.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::uint64_t op, SpanKind k,
             std::uint32_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  /// This span's id (for children), reserved at construction.
  std::uint32_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  std::uint64_t op_;
  SpanKind kind_;
  std::uint32_t parent_;
  std::uint32_t id_ = 0;
  std::uint64_t start_ = 0;
};

// ---- the sim path, whole or decomposed ----------------------------------

/// SimExecutor::execute rebuilt from the public calls it makes (validate,
/// then the registry's sim_run and sim_energy hooks, then attach_cost),
/// each timed as a span of op `op` under a FabricExecute span whose parent
/// is `parent`. Byte-identical results. `sim_run_ns` (optional) receives
/// the time of the sim_run hook alone.
KernelResult traced_sim_execute(const KernelRequest& req, SpanRecorder& rec,
                                std::uint64_t op, std::uint32_t parent,
                                std::uint64_t* sim_run_ns = nullptr);

/// One execution seen by the timing decorator.
struct ExecRec {
  std::uint64_t op = 0;  ///< from the request tag
  std::uint64_t start = 0, end = 0;
  std::uint64_t run_ns = 0;  ///< sim_run hook time (traced), else end - start
  std::int64_t macs = 0;  ///< sim::Stats::mac_ops of the result
  lac::fabric::KernelKind kind = lac::fabric::KernelKind::Gemm;
};

/// The timing Executor decorator handed to the pool paths. Untraced, it
/// forwards to the wrapped backend with two clock reads around the call;
/// traced, it runs the decomposed sim path and records its spans. Either
/// way it logs one ExecRec per execution (per-thread log, uncontended lock)
/// naming the op carried in the request tag.
class TimingExecutor final : public lac::fabric::Executor {
 public:
  explicit TimingExecutor(const lac::fabric::Executor& inner) : inner_(inner) {}
  const char* name() const override { return inner_.name(); }
  KernelResult execute(const KernelRequest& req) const override;

  /// Traced executions record spans here; null = untraced.
  void set_recorder(SpanRecorder* rec) { rec_ = rec; }
  /// Every ExecRec logged so far; clears the logs. Safe while executions
  /// run (a run drains the logs as it goes, so they stay small).
  std::vector<ExecRec> collect();

 private:
  struct Log {
    std::mutex mu;
    std::vector<ExecRec> recs;
  };
  Log& local() const;
  const lac::fabric::Executor& inner_;
  const std::uint64_t generation_ = next_generation();
  SpanRecorder* rec_ = nullptr;
  mutable std::mutex mu_;
  mutable std::vector<std::unique_ptr<Log>> logs_;
};

/// Op ids travel in request tags on the pool paths ("<decimal id>").
std::string op_tag(std::uint64_t op);
std::uint64_t op_from_tag(const std::string& tag);

// ---- process facts ------------------------------------------------------

/// Peak resident set of this process, MiB.
double peak_rss_mb();
/// CPU brand string (x86 CPUID), "unknown" elsewhere.
std::string cpu_model();

}  // namespace lacb
