#include "serve/stats.h"

#include <algorithm>
#include <cmath>

namespace lmfao {

const char* RequestClassName(RequestClass cls) {
  switch (cls) {
    case RequestClass::kPreparedExecute:
      return "prepared-execute";
    case RequestClass::kDeltaRefresh:
      return "delta-refresh";
    case RequestClass::kAdHoc:
      return "ad-hoc";
  }
  return "unknown";
}

size_t LatencyHistogram::BucketOf(double seconds) {
  if (seconds <= kMinSeconds) return 0;
  // 4 buckets per doubling.
  const double idx = std::log2(seconds / kMinSeconds) * 4.0;
  const size_t bucket = static_cast<size_t>(idx) + 1;
  return std::min(bucket, kBuckets - 1);
}

double LatencyHistogram::BucketUpperBound(size_t bucket) {
  return kMinSeconds * std::exp2(static_cast<double>(bucket) / 4.0);
}

void LatencyHistogram::Record(double seconds) {
  if (seconds < 0.0) seconds = 0.0;
  ++counts_[BucketOf(seconds)];
  ++count_;
  sum_ += seconds;
  max_ = std::max(max_, seconds);
}

double LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::min(std::max(p, 0.0), 100.0);
  // Rank of the percentile observation, 1-based (nearest-rank method).
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(p / 100.0 *
                                         static_cast<double>(count_))));
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    seen += counts_[b];
    if (seen >= rank) {
      // The overflow bucket has no finite upper bound; report the true max.
      if (b == kBuckets - 1) return max_;
      return std::min(BucketUpperBound(b), max_);
    }
  }
  return max_;
}

void LatencyHistogram::MergeFrom(const LatencyHistogram& other) {
  for (size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

void ClassStats::MergeFrom(const ClassStats& other) {
  submitted += other.submitted;
  admitted += other.admitted;
  shed_queue_full += other.shed_queue_full;
  shed_watermark += other.shed_watermark;
  rejected_draining += other.rejected_draining;
  expired_in_queue += other.expired_in_queue;
  completed_ok += other.completed_ok;
  failed += other.failed;
  retries += other.retries;
  deadline_trips += other.deadline_trips;
  degraded += other.degraded;
  coalesced += other.coalesced;
  queue_depth_highwater =
      std::max(queue_depth_highwater, other.queue_depth_highwater);
  latency.MergeFrom(other.latency);
}

ClassStats ServerStats::Totals() const {
  ClassStats total;
  for (const ClassStats& c : classes) total.MergeFrom(c);
  return total;
}

}  // namespace lmfao
