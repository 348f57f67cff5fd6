/// \file stats.h
/// \brief Observability for the serving front-end: per-class admission /
/// retry / shedding counters and log-bucketed latency histograms.
///
/// The server accumulates these under its own lock and hands out value
/// snapshots (`Server::stats()`), so none of the types here synchronize
/// themselves — they are plain data, cheap to copy, and mergeable.

#ifndef LMFAO_SERVE_STATS_H_
#define LMFAO_SERVE_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace lmfao {

/// \brief The three admission classes of the serving layer, in strict
/// priority order: under overload the server sheds from the bottom up
/// (ad-hoc first, then delta-refresh; prepared-execute is shed only when
/// its own queue is full).
enum class RequestClass {
  /// Execute of a pre-registered prepared batch — the steady-state
  /// workload (e.g. the covariance batch a model retrains on).
  kPreparedExecute = 0,
  /// Incremental refresh of a registered batch's base result to the
  /// current epoch (ExecRequest::delta_base). Degrades to serving the
  /// pinned base epoch when the refresh cannot complete.
  kDeltaRefresh = 1,
  /// Parse + prepare + execute of query text — the most expensive and
  /// least predictable class, shed first under load.
  kAdHoc = 2,
};

inline constexpr size_t kNumRequestClasses = 3;

const char* RequestClassName(RequestClass cls);

/// \brief Fixed log-scale latency histogram (microsecond floor, ~19%
/// bucket ratio), good for p50/p95/p99 without storing samples.
///
/// Not thread-safe; the owner synchronizes.
class LatencyHistogram {
 public:
  /// Records one latency observation (negative values clamp to 0).
  void Record(double seconds);

  uint64_t count() const { return count_; }
  double sum_seconds() const { return sum_; }
  double max_seconds() const { return max_; }

  /// Latency at percentile `p` in [0, 100], estimated as the upper bound
  /// of the bucket containing the p-th observation (conservative: never
  /// under-reports). 0 when empty.
  double Percentile(double p) const;

  void MergeFrom(const LatencyHistogram& other);

 private:
  /// Buckets are geometric: bucket i covers latencies up to
  /// kMinSeconds * 2^(i/4), i.e. a ratio of 2^0.25 ~ 1.19 per bucket.
  /// 104 buckets reach kMinSeconds * 2^26 ~ 67 s; the last bucket is the
  /// overflow sink.
  static constexpr size_t kBuckets = 104;
  static constexpr double kMinSeconds = 1e-6;

  static size_t BucketOf(double seconds);
  static double BucketUpperBound(size_t bucket);

  std::array<uint64_t, kBuckets> counts_{};
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

/// \brief Counters for one admission class. All monotonic.
struct ClassStats {
  /// Requests offered to Submit.
  uint64_t submitted = 0;
  /// Requests that passed admission into the class queue.
  uint64_t admitted = 0;
  /// Rejected because this class's queue was at capacity.
  uint64_t shed_queue_full = 0;
  /// Rejected by the load-shedding watermark (total backlog too deep for
  /// this class's priority) even though the class queue had room.
  uint64_t shed_watermark = 0;
  /// Rejected because the server was draining or shut down.
  uint64_t rejected_draining = 0;
  /// Admitted but expired in the queue before a worker picked them up.
  uint64_t expired_in_queue = 0;
  /// Completed with an OK response (includes degraded responses).
  uint64_t completed_ok = 0;
  /// Completed with a non-OK response after admission.
  uint64_t failed = 0;
  /// Execution attempts beyond the first, across all requests.
  uint64_t retries = 0;
  /// Responses that tripped the deadline (in queue or mid-execution).
  uint64_t deadline_trips = 0;
  /// OK responses served degraded (delta-refresh fell back to its pinned
  /// base epoch, or the engine reported degraded groups).
  uint64_t degraded = 0;
  /// OK responses copied from an identical request's execution (coalesced).
  uint64_t coalesced = 0;
  /// Deepest this class's queue has been.
  size_t queue_depth_highwater = 0;
  /// Admission-to-completion latency of admitted requests.
  LatencyHistogram latency;

  void MergeFrom(const ClassStats& other);
};

/// \brief Snapshot of the server's counters.
struct ServerStats {
  std::array<ClassStats, kNumRequestClasses> classes;
  /// Deepest the combined backlog (all classes) has been.
  size_t total_queue_depth_highwater = 0;

  const ClassStats& of(RequestClass cls) const {
    return classes[static_cast<size_t>(cls)];
  }
  ClassStats& of(RequestClass cls) {
    return classes[static_cast<size_t>(cls)];
  }
  /// Sum across classes (histograms merged too).
  ClassStats Totals() const;
};

}  // namespace lmfao

#endif  // LMFAO_SERVE_STATS_H_
