#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/numeric.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lacb {

std::uint64_t now_ns() { return lac::obs::metrics_now_ns(); }

void wait_until_ns(std::uint64_t t_ns) {
  for (;;) {
    const std::uint64_t now = now_ns();
    if (now >= t_ns) return;
    // Sleeps overshoot by milliseconds on a busy host: sleep only while the
    // deadline is far, and spin the rest of the way.
    if (t_ns - now > 5'000'000)
      std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now - 4'000'000));
  }
}

// ---- samples ------------------------------------------------------------

void Samples::add(double v) {
  ++n_;
  sum_ += v;
  if (v_.size() < kCapacity) {
    v_.push_back(v);
    sorted_ = false;
    return;
  }
  // Reservoir sampling (Algorithm R) with a fixed-seed xorshift stream.
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  const std::uint64_t slot = rng_ % n_;
  if (slot < kCapacity) {
    v_[slot] = v;
    sorted_ = false;
  }
}

double Samples::pct(double p) {
  if (v_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  const double rank = std::ceil(p * static_cast<double>(v_.size()));
  const std::size_t idx =
      rank <= 1.0 ? 0
                  : std::min(v_.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v_[idx];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- metrics report -----------------------------------------------------

Report::Report(const std::vector<std::pair<std::string, std::string>>& names) {
  for (const auto& [name, unit] : names) metrics_.push_back(Metric{name, 0.0, unit, 0});
}

void Report::set(const std::string& name, double value, std::uint64_t samples) {
  const auto it = std::find_if(metrics_.begin(), metrics_.end(),
                               [&](const Metric& m) { return m.name == name; });
  if (it == metrics_.end()) throw std::logic_error("unknown metric " + name);
  it->value = value;
  it->samples = samples;
}

std::string Report::to_json(const std::string& indent) const {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    os << (i ? ",\n" : "\n") << indent << "  " << json_str(m.name)
       << ": {\"value\": " << json_num(m.value) << ", \"unit\": "
       << json_str(m.unit) << ", \"samples\": " << m.samples << "}";
  }
  os << "\n" << indent << "}";
  return os.str();
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---- digests ------------------------------------------------------------

namespace {

/// Word-at-a-time 64-bit mixing hash: fast enough to digest every result
/// on the hot path, and any flipped bit changes it.
class Hasher {
 public:
  void bytes(const void* p, std::size_t n) {
    const unsigned char* b = static_cast<const unsigned char*>(p);
    std::uint64_t w = 0;
    for (; n >= 8; n -= 8, b += 8) {
      std::memcpy(&w, b, 8);
      word(w);
    }
    w = 0;
    std::memcpy(&w, b, n);
    word(w ^ (static_cast<std::uint64_t>(n) << 56));
  }
  template <typename T>
  void pod(const T& v) {
    bytes(&v, sizeof v);
  }
  std::uint64_t value() const { return h_ ^ (h_ >> 29); }

 private:
  void word(std::uint64_t w) {
    h_ = (h_ ^ (w * 0x9e3779b97f4a7c15ull)) * 0xff51afd7ed558ccdull;
    h_ ^= h_ >> 32;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void hash_outputs(Hasher& h, const KernelResult& r) {
  h.pod(r.out.rows());
  h.pod(r.out.cols());
  if (r.out.rows() > 0 && r.out.cols() > 0)
    h.bytes(r.out.data(), sizeof(double) * static_cast<std::size_t>(r.out.rows()) *
                              static_cast<std::size_t>(r.out.cols()));
  h.bytes(r.pivots.data(), sizeof(lac::index_t) * r.pivots.size());
  h.bytes(r.taus.data(), sizeof(double) * r.taus.size());
  h.pod(r.scalar);
  h.bytes(r.spectrum.data(), sizeof(std::complex<double>) * r.spectrum.size());
}

void hash_cost(Hasher& h, const KernelResult& r) {
  h.pod(r.ok);
  h.pod(r.cycles.value());
  h.pod(r.utilization);
  h.pod(r.energy_nj.value());
  h.pod(r.avg_power_w.value());
  h.pod(r.area_mm2.value());
  const lac::sim::Stats& s = r.stats;
  for (std::int64_t v : {s.mac_ops, s.mul_ops, s.cmp_ops, s.mem_a_reads,
                         s.mem_a_writes, s.mem_b_reads, s.mem_b_writes,
                         s.rf_reads, s.rf_writes, s.row_bus_xfers,
                         s.col_bus_xfers, s.sfu_ops, s.dma_words})
    h.pod(v);
}

}  // namespace

std::uint64_t result_digest(const KernelResult& r) {
  Hasher h;
  hash_outputs(h, r);
  hash_cost(h, r);
  return h.value();
}

std::uint64_t matrix_digest(const lac::MatrixD& m) {
  Hasher h;
  h.pod(m.rows());
  h.pod(m.cols());
  if (m.rows() > 0 && m.cols() > 0)
    h.bytes(m.data(), sizeof(double) * static_cast<std::size_t>(m.rows()) *
                          static_cast<std::size_t>(m.cols()));
  return h.value();
}

std::uint64_t combine_digest(std::uint64_t h, std::uint64_t v) {
  Hasher x;
  x.pod(h);
  x.pod(v);
  return x.value();
}

std::string compare_numerics(const KernelResult& sim, const KernelResult& ref,
                             double tol) {
  if (!sim.ok || !ref.ok)
    return "not ok: " + (sim.ok ? ref.error : sim.error);
  if (sim.out.rows() != ref.out.rows() || sim.out.cols() != ref.out.cols())
    return "output shape differs from the reference";
  if (sim.out.rows() > 0 && lac::rel_error(sim.out.view(), ref.out.view()) > tol)
    return "output differs from the reference";
  if (sim.pivots != ref.pivots) return "pivots differ from the reference";
  if (sim.taus.size() != ref.taus.size()) return "taus differ from the reference";
  for (std::size_t i = 0; i < sim.taus.size(); ++i)
    if (!lac::close(sim.taus[i], ref.taus[i], tol)) return "taus differ from the reference";
  if (!lac::close(sim.scalar, ref.scalar, tol)) return "scalar differs from the reference";
  if (sim.spectrum.size() != ref.spectrum.size())
    return "spectrum length differs from the reference";
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < sim.spectrum.size(); ++i) {
    num += std::norm(sim.spectrum[i] - ref.spectrum[i]);
    den += std::norm(ref.spectrum[i]);
  }
  if (std::sqrt(num) > tol * std::max(1.0, std::sqrt(den)))
    return "spectrum differs from the reference";
  return "";
}

// ---- checker ------------------------------------------------------------

bool Checker::check(const KernelResult& r, std::uint64_t expected,
                    const char* what) {
  if (!r.ok) return verdict(false, std::string(what) + ": ok=false: " + r.error);
  if (result_digest(r) != expected)
    return verdict(false, std::string(what) + ": result differs from its fingerprint");
  return verdict(true, "");
}

bool Checker::verdict(bool ok, const std::string& why) {
  attempted_.fetch_add(1, std::memory_order_relaxed);
  if (ok) return true;
  failed_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (reasons_.size() < 8) reasons_.push_back(why);
  return false;
}

std::vector<std::string> Checker::reasons() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reasons_;
}

// ---- spans --------------------------------------------------------------

namespace {

struct SpanInfo {
  const char* name;
  const char* layer;
};

constexpr SpanInfo kSpanInfo[] = {
    {"op", "unattributed"},
    {"harness.check", "harness"},
    {"gen.late", "harness"},
    {"fabric.execute", "fabric"},
    {"fabric.validate", "fabric"},
    {"sim.run", "sim"},
    {"power.energy", "power"},
    {"blas.reference", "blas"},
    {"serving.signature", "serving"},
    {"serving.estimate", "serving"},
    {"model.cost", "model"},
    {"serving.submit", "serving"},
    {"pool.queue_wait", "pool"},
    {"pool.complete", "pool"},
    {"sched.submit", "sched"},
    {"sched.wait", "sched"},
    {"sched.run", "sched"},
};
static_assert(std::size(kSpanInfo) == static_cast<std::size_t>(SpanKind::kCount));

template <typename T>
struct LocalBuffer {
  std::uint64_t generation = 0;
  std::vector<T>* buf = nullptr;
};

}  // namespace

std::uint64_t next_generation() {
  static std::atomic<std::uint64_t> gen{1};
  return gen.fetch_add(1);
}

const char* span_name(SpanKind k) { return kSpanInfo[static_cast<int>(k)].name; }
const char* span_layer(SpanKind k) { return kSpanInfo[static_cast<int>(k)].layer; }

std::vector<SpanRec>& SpanRecorder::local() {
  thread_local LocalBuffer<SpanRec> cache;
  if (cache.generation != generation_) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<std::vector<SpanRec>>());
    buffers_.back()->reserve(1 << 14);
    cache.buf = buffers_.back().get();
    cache.generation = generation_;
  }
  return *cache.buf;
}

std::uint32_t SpanRecorder::add(std::uint64_t op, SpanKind k, std::uint64_t start,
                                std::uint64_t end, std::uint32_t parent) {
  const std::uint32_t id = reserve_id();
  add_with_id(id, op, k, start, end, parent);
  return id;
}

void SpanRecorder::add_with_id(std::uint32_t id, std::uint64_t op, SpanKind k,
                               std::uint64_t start, std::uint64_t end,
                               std::uint32_t parent) {
  if (end < start) end = start;
  local().push_back(SpanRec{op, start, end, id, parent, k});
  lac::obs::record_interval(span_name(k), "bench", start, end, op);
}

void SpanRecorder::attribute() {
  std::vector<SpanRec> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t n = 0;
    for (const auto& b : buffers_) n += b->size();
    all.reserve(n);
    for (const auto& b : buffers_) {
      all.insert(all.end(), b->begin(), b->end());
      b->clear();
    }
  }
  std::sort(all.begin(), all.end(), [](const SpanRec& a, const SpanRec& b) {
    return a.op != b.op ? a.op < b.op : a.start < b.start;
  });
  for (auto it = all.begin(); it != all.end();) {
    auto next = std::find_if(it, all.end(),
                             [op = it->op](const SpanRec& s) { return s.op != op; });
    attribute_op(it, next);
    it = next;
  }
}

void SpanRecorder::attribute_op(std::vector<SpanRec>::iterator begin,
                                std::vector<SpanRec>::iterator end) {
  auto root = std::find_if(begin, end, [](const SpanRec& s) { return s.id == 0; });
  if (root == end) return;  // an op without its root was not completed
  const std::uint64_t r0 = root->start, r1 = root->end;
  root_ns_ += static_cast<double>(r1 - r0);
  ++ops_;

  // Children clipped to the root interval; a parent id absent from the op
  // means the root.
  std::vector<SpanRec> spans;
  for (auto it = begin; it != end; ++it) {
    totals_[static_cast<std::size_t>(it->kind)].dur_us.add(
        static_cast<double>(it->end - it->start) / 1e3);
    if (it->id == 0) continue;
    SpanRec s = *it;
    s.start = std::clamp(s.start, r0, r1);
    s.end = std::clamp(s.end, r0, r1);
    spans.push_back(s);
  }
  for (SpanRec& s : spans) {
    const bool known = std::any_of(spans.begin(), spans.end(),
                                   [&](const SpanRec& p) { return p.id == s.parent; });
    if (!known) s.parent = 0;
  }

  std::vector<std::uint64_t> cuts = {r0, r1};
  for (const SpanRec& s : spans) {
    cuts.push_back(s.start);
    cuts.push_back(s.end);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  std::vector<const SpanRec*> active, deepest;
  double unattributed = 0.0;
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    const std::uint64_t a = cuts[i], b = cuts[i + 1];
    active.clear();
    for (const SpanRec& s : spans)
      if (s.start <= a && s.end >= b) active.push_back(&s);
    deepest.clear();
    for (const SpanRec* s : active) {
      const bool has_active_child = std::any_of(
          active.begin(), active.end(),
          [&](const SpanRec* c) { return c->parent == s->id; });
      if (!has_active_child) deepest.push_back(s);
    }
    const double seg = static_cast<double>(b - a);
    if (deepest.empty()) {
      unattributed += seg;
      continue;
    }
    const double share = seg / static_cast<double>(deepest.size());
    for (const SpanRec* s : deepest)
      totals_[static_cast<std::size_t>(s->kind)].self_ns += share;
  }
  totals_[static_cast<std::size_t>(SpanKind::Op)].self_ns += unattributed;
}

ScopedSpan::ScopedSpan(SpanRecorder* rec, std::uint64_t op, SpanKind k,
                       std::uint32_t parent)
    : rec_(rec), op_(op), kind_(k), parent_(parent) {
  if (!rec_) return;
  id_ = rec_->reserve_id();
  start_ = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (rec_) rec_->add_with_id(id_, op_, kind_, start_, now_ns(), parent_);
}

// ---- the sim path -------------------------------------------------------

KernelResult traced_sim_execute(const KernelRequest& req, SpanRecorder& rec,
                                std::uint64_t op, std::uint32_t parent,
                                std::uint64_t* sim_run_ns) {
  using namespace lac::fabric;
  ScopedSpan exec(&rec, op, SpanKind::FabricExecute, parent);
  std::string err;
  {
    ScopedSpan s(&rec, op, SpanKind::FabricValidate, exec.id());
    err = validate(req);
  }
  if (!err.empty()) return make_failed(req, "sim", err);
  const KernelTraits& traits = kernel_traits(req.kind);
  KernelResult res;
  res.backend = "sim";
  res.tag = req.tag;
  const std::uint64_t run_start = now_ns();
  {
    ScopedSpan s(&rec, op, SpanKind::SimRun, exec.id());
    err = traits.sim_run(req, res);
  }
  if (sim_run_ns) *sim_run_ns = now_ns() - run_start;
  if (!err.empty()) return make_failed(req, "sim", err);
  lac::power::EnergyReport energy;
  {
    ScopedSpan s(&rec, op, SpanKind::PowerEnergy, exec.id());
    energy = traits.sim_energy(req, res.stats, res.cycles);
  }
  attach_cost(res, req, energy);
  res.ok = true;
  return res;
}

// ---- timing decorator ---------------------------------------------------

TimingExecutor::Log& TimingExecutor::local() const {
  thread_local std::uint64_t generation = 0;
  thread_local Log* log = nullptr;
  if (generation != generation_) {
    std::lock_guard<std::mutex> lock(mu_);
    logs_.push_back(std::make_unique<Log>());
    log = logs_.back().get();
    generation = generation_;
  }
  return *log;
}

KernelResult TimingExecutor::execute(const KernelRequest& req) const {
  const std::uint64_t op = op_from_tag(req.tag);
  std::uint64_t run_ns = 0;
  const std::uint64_t start = now_ns();
  KernelResult res = rec_ ? traced_sim_execute(req, *rec_, op, kExecContext, &run_ns)
                          : inner_.execute(req);
  const std::uint64_t end = now_ns();
  Log& log = local();
  std::lock_guard<std::mutex> lock(log.mu);
  log.recs.push_back(
      ExecRec{op, start, end, rec_ ? run_ns : end - start, res.stats.mac_ops, req.kind});
  return res;
}

std::vector<ExecRec> TimingExecutor::collect() {
  std::vector<ExecRec> all;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& log : logs_) {
    std::lock_guard<std::mutex> log_lock(log->mu);
    all.insert(all.end(), log->recs.begin(), log->recs.end());
    log->recs.clear();
  }
  return all;
}

std::string op_tag(std::uint64_t op) { return std::to_string(op); }

std::uint64_t op_from_tag(const std::string& tag) {
  std::uint64_t v = 0;
  for (char c : tag) {
    if (c < '0' || c > '9') return 0;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

// ---- process facts ------------------------------------------------------

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    if (b != std::string::npos) return s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

}  // namespace lacb
