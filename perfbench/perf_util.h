/// \file perf_util.h
/// \brief The benchmark's own measurement logic, kept free of workload code
/// so it can be unit-tested: percentiles and the tail-percentile choice,
/// request outcome accounting, open-loop request records, spans with
/// per-layer self time, Chrome trace-event export, and process resource
/// readings.

#ifndef LMFAO_PERFBENCH_PERF_UTIL_H_
#define LMFAO_PERFBENCH_PERF_UTIL_H_

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Clock and process resources.

/// Seconds on the steady clock since the first call in this process.
inline double NowSeconds() {
  static const auto kStart = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kStart)
      .count();
}

/// User + system CPU seconds of the whole process.
inline double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// Peak resident set size of the process in MiB (ru_maxrss is in KiB on
/// Linux).
inline double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Percentiles.

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it. 0 for an empty set.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

/// The tail statistic: the highest percentile of a fixed ladder that still
/// has at least `kMinBeyond` samples above its nearest-rank position. The
/// ladder keeps the reported percentile the same across runs whose sample
/// counts differ a little; with fewer than 2 * kMinBeyond samples no ladder
/// rung qualifies and the median is reported (`beyond` then says so).
struct TailStat {
  double percentile = 50.0;
  double value = 0.0;
  size_t samples = 0;
  /// Samples strictly beyond the percentile's rank.
  size_t beyond = 0;
};

inline constexpr size_t kMinBeyond = 10;
inline constexpr double kTailLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};

inline TailStat TailPercentile(const std::vector<double>& samples) {
  TailStat tail;
  tail.samples = samples.size();
  if (samples.empty()) return tail;
  const double n = static_cast<double>(samples.size());
  auto beyond_at = [&](double p) {
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
    rank = std::clamp<size_t>(rank, 1, samples.size());
    return samples.size() - rank;
  };
  for (double p : kTailLadder) {
    if (beyond_at(p) >= kMinBeyond || p == 50.0) {
      tail.percentile = p;
      tail.beyond = beyond_at(p);
      tail.value = Percentile(samples, p);
      return tail;
    }
  }
  return tail;
}

// ---------------------------------------------------------------------------
// Outcomes.

/// How one attempted operation ended. Everything but kOk is a failure.
enum class Outcome { kOk, kShed, kDeadline, kError, kWrong };

/// Maps a response status to an outcome: ResourceExhausted is the server's
/// admission rejection (shed), DeadlineExceeded a deadline miss.
inline Outcome Classify(const lmfao::Status& status) {
  if (status.ok()) return Outcome::kOk;
  switch (status.code()) {
    case lmfao::StatusCode::kResourceExhausted:
      return Outcome::kShed;
    case lmfao::StatusCode::kDeadlineExceeded:
      return Outcome::kDeadline;
    default:
      return Outcome::kError;
  }
}

/// Attempted/failed accounting over a set of operations.
struct Tally {
  int64_t attempted = 0;
  int64_t ok = 0;
  int64_t shed = 0;
  int64_t deadline = 0;
  int64_t error = 0;
  int64_t wrong = 0;

  void Add(Outcome outcome) {
    ++attempted;
    switch (outcome) {
      case Outcome::kOk: ++ok; break;
      case Outcome::kShed: ++shed; break;
      case Outcome::kDeadline: ++deadline; break;
      case Outcome::kError: ++error; break;
      case Outcome::kWrong: ++wrong; break;
    }
  }
  /// An OK operation later found wrong (e.g. by a replay check).
  void MarkWrong() {
    --ok;
    ++wrong;
  }
  int64_t failed() const { return shed + deadline + error + wrong; }
  double ok_frac() const {
    return attempted > 0
               ? static_cast<double>(ok) / static_cast<double>(attempted)
               : 0.0;
  }
};

// ---------------------------------------------------------------------------
// Open-loop requests.

/// One request of an open-loop run. Times are NowSeconds() readings.
struct RequestRecord {
  /// When the schedule said the request should be sent.
  double due = 0.0;
  /// When the generator actually handed it to the server.
  double submitted = 0.0;
  /// When its future was seen resolved.
  double resolved = 0.0;
  Outcome outcome = Outcome::kOk;

  /// Latency counts from the due time, so a generator stall is charged to
  /// every request it delayed.
  double latency() const { return resolved - due; }
  double lateness() const { return submitted - due; }
};

/// One offered rate of an open-loop run.
struct RungSummary {
  double offered_qps = 0.0;
  Tally tally;
  TailStat tail;  ///< Over every request, failures included.
  double p50_ms = 0.0;
  /// OK requests within the latency limit, per second of the rung's
  /// window (first due time to last resolution).
  double goodput_qps = 0.0;
  double max_lateness_ms = 0.0;
  /// No request failed, the tail is within the latency limit, and the
  /// backlog did not grow: the median latency of the rung's last quarter
  /// (by due time) is within the limit too.
  bool passed = false;
};

/// Summarizes the records of one rung, in due-time order. A failed request
/// counts as missing the limit: its latency enters the tail as +infinity.
inline RungSummary SummarizeRung(const std::vector<RequestRecord>& records,
                                 double offered_qps, double limit_ms) {
  RungSummary rung;
  rung.offered_qps = offered_qps;
  std::vector<double> all_ms;
  std::vector<double> last_quarter_ms;
  int64_t good = 0;
  double window_end = records.empty() ? 0.0 : records.front().due;
  for (size_t i = 0; i < records.size(); ++i) {
    const RequestRecord& r = records[i];
    window_end = std::max(window_end, r.resolved);
    rung.tally.Add(r.outcome);
    rung.max_lateness_ms = std::max(rung.max_lateness_ms, r.lateness() * 1e3);
    double ms = HUGE_VAL;
    if (r.outcome == Outcome::kOk) {
      ms = r.latency() * 1e3;
      if (ms <= limit_ms) ++good;
    }
    all_ms.push_back(ms);
    if (4 * i >= 3 * records.size()) last_quarter_ms.push_back(ms);
  }
  rung.tail = TailPercentile(all_ms);
  rung.p50_ms = Median(all_ms);
  const double window = records.empty() ? 0.0 : window_end - records.front().due;
  rung.goodput_qps = window > 0.0 ? static_cast<double>(good) / window : 0.0;
  rung.passed = !records.empty() && rung.tally.failed() == 0 &&
                rung.tail.value <= limit_ms &&
                Median(last_quarter_ms) <= limit_ms;
  return rung;
}

// ---------------------------------------------------------------------------
// Spans.

/// One timed call at a layer boundary. `trace` is the id of the op (root
/// span) the span belongs to, 0 for spans outside any op (data generation,
/// oracles, appends).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t trace = 0;
  std::string name;
  std::string layer;
  double start = 0.0;
  double end = 0.0;
  int tid = 0;
};

/// In-memory span recorder. Spans are appended under a lock when they end
/// and written out once, at exit. A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  uint64_t NewId() { return next_id_.fetch_add(1) + 1; }

  void Record(Span span) {
    if (!enabled_) return;
    if (span.tid == 0) span.tid = ThreadIndex();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Small stable per-thread number for the trace viewer's rows.
  static int ThreadIndex() {
    static std::atomic<int> next{0};
    thread_local const int index = ++next;
    return index;
  }

 private:
  const bool enabled_;
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Records [construction, destruction) as a span. A root span with a null
/// tracer (or a disabled one) records nothing, and neither do its children,
/// so an untraced op costs one branch per boundary.
class ScopedSpan {
 public:
  /// A root span. `op` marks the root of one operation: its id becomes the
  /// trace id its descendants share. Other roots (data generation, oracles,
  /// appends) have trace id 0.
  ScopedSpan(Tracer* tracer, const char* name, const char* layer, bool op)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
    if (tracer_ == nullptr) return;
    Begin(name, layer, 0, 0);
    if (op) span_.trace = span_.id;
  }
  /// A child of `parent`; recorded only when the parent is.
  ScopedSpan(const ScopedSpan& parent, const char* name, const char* layer)
      : tracer_(parent.tracer_) {
    if (tracer_ == nullptr) return;
    Begin(name, layer, parent.span_.id, parent.span_.trace);
  }
  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    span_.end = NowSeconds();
    tracer_->Record(std::move(span_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void Begin(const char* name, const char* layer, uint64_t parent,
             uint64_t trace) {
    span_.id = tracer_->NewId();
    span_.parent = parent;
    span_.trace = trace;
    span_.name = name;
    span_.layer = layer;
    span_.start = NowSeconds();
  }

  Tracer* tracer_;
  Span span_;
};

/// Self time per layer: each span's duration minus the part of its
/// interval covered by the union of its direct children (clipped to the
/// span), summed by layer. Only spans with trace != 0 (inside an op)
/// count.
inline std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    if (s.trace == 0) continue;
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<double, double>> iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cur_lo = 0.0;
      double cur_hi = -HUGE_VAL;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start);
        hi = std::min(hi, s.end);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    self[s.layer] += std::max(0.0, (s.end - s.start) - covered);
  }
  return self;
}

/// Writes the spans as Chrome trace-event JSON ("X" complete events,
/// microseconds), loadable in Perfetto or chrome://tracing.
inline bool WriteChromeTrace(const std::vector<Span>& spans,
                             const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"trace\":%llu}}%s\n",
                 s.name.c_str(), s.layer.c_str(), s.start * 1e6,
                 (s.end - s.start) * 1e6, s.tid,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.trace),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench

#endif  // LMFAO_PERFBENCH_PERF_UTIL_H_
