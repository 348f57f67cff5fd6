// Tests of the benchmark's measurement logic.

#include "perf_util.h"

#include <gtest/gtest.h>

#include <numeric>

namespace perfbench {
namespace {

std::vector<double> Iota(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1..n
  return v;
}

TEST(TailPercentile, PicksHighestLadderRungWithTenBeyond) {
  // 1000 samples: p99 leaves exactly 10 above it; p99.9 only 1.
  TailStat tail = TailPercentile(Iota(1000));
  EXPECT_EQ(tail.percentile, 99.0);
  EXPECT_EQ(tail.value, 990.0);
  EXPECT_EQ(tail.beyond, 10u);
  EXPECT_EQ(tail.samples, 1000u);

  // 999 samples: p99 leaves 9 above, so p95 is the tail.
  tail = TailPercentile(Iota(999));
  EXPECT_EQ(tail.percentile, 95.0);
  EXPECT_GE(tail.beyond, kMinBeyond);

  // 100 samples: p90 leaves exactly 10.
  tail = TailPercentile(Iota(100));
  EXPECT_EQ(tail.percentile, 90.0);
  EXPECT_EQ(tail.value, 90.0);
  EXPECT_EQ(tail.beyond, 10u);
}

TEST(TailPercentile, FallsBackToMedianWithFewSamples) {
  const TailStat tail = TailPercentile(Iota(12));
  EXPECT_EQ(tail.percentile, 50.0);
  EXPECT_EQ(tail.value, 6.0);
  EXPECT_LT(tail.beyond, kMinBeyond);
  EXPECT_EQ(TailPercentile({}).samples, 0u);
}

TEST(TailPercentile, IgnoresSampleOrder) {
  std::vector<double> v = Iota(40);
  std::reverse(v.begin(), v.end());
  const TailStat tail = TailPercentile(v);
  EXPECT_EQ(tail.percentile, 75.0);
  EXPECT_EQ(tail.value, 30.0);
}

TEST(OpenLoop, LatencyCountsFromDueTimeAndLatenessIsReported) {
  RequestRecord r;
  r.due = 10.0;
  r.submitted = 10.040;  // the generator was 40 ms late
  r.resolved = 10.100;
  EXPECT_NEAR(r.latency(), 0.100, 1e-12);
  EXPECT_NEAR(r.lateness(), 0.040, 1e-12);

  const RungSummary rung = SummarizeRung({r}, 1.0, 250.0);
  EXPECT_NEAR(rung.p50_ms, 100.0, 1e-9);
  EXPECT_NEAR(rung.max_lateness_ms, 40.0, 1e-9);
}

TEST(OpenLoop, GrowingBacklogFailsTheRung) {
  // Latency climbs steadily as each request waits behind the last.
  std::vector<RequestRecord> records;
  for (int i = 0; i < 40; ++i) {
    RequestRecord r;
    r.due = i * 0.01;
    r.submitted = r.due;
    r.resolved = r.due + 0.010 * (i + 1);
    records.push_back(r);
  }
  const RungSummary rung = SummarizeRung(records, 100.0, 250.0);
  EXPECT_EQ(rung.tally.failed(), 0);
  EXPECT_FALSE(rung.passed);

  for (RequestRecord& r : records) r.resolved = r.due + 0.020;
  EXPECT_TRUE(SummarizeRung(records, 100.0, 250.0).passed);
}

TEST(Outcomes, ShedAndDeadlineMissesAreFailures) {
  EXPECT_EQ(Classify(lmfao::Status::OK()), Outcome::kOk);
  EXPECT_EQ(Classify(lmfao::Status::ResourceExhausted("queue full")),
            Outcome::kShed);
  EXPECT_EQ(Classify(lmfao::Status::DeadlineExceeded("late")),
            Outcome::kDeadline);
  EXPECT_EQ(Classify(lmfao::Status::Internal("boom")), Outcome::kError);

  std::vector<RequestRecord> records(4);
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].due = static_cast<double>(i);
    records[i].submitted = records[i].due;
    records[i].resolved = records[i].due + 0.01;
  }
  records[1].outcome = Outcome::kShed;
  records[2].outcome = Outcome::kDeadline;
  const RungSummary rung = SummarizeRung(records, 1.0, 250.0);
  EXPECT_EQ(rung.tally.attempted, 4);
  EXPECT_EQ(rung.tally.failed(), 2);
  EXPECT_DOUBLE_EQ(rung.tally.ok_frac(), 0.5);
  // Only OK requests within the limit count as goodput, over the window
  // from the first due time to the last resolution.
  EXPECT_NEAR(rung.goodput_qps, 2.0 / 3.01, 1e-9);
  EXPECT_FALSE(rung.passed);

  Tally tally = rung.tally;
  tally.MarkWrong();  // a replay found one OK answer wrong
  EXPECT_EQ(tally.failed(), 3);
  EXPECT_EQ(tally.ok, 1);
}

TEST(Spans, SelfTimeSubtractsNestedChildren) {
  // op [0,10] -> engine [1,4] -> storage [2,3]
  //           -> ml [3,6] (overlaps engine by 1: covered once)
  // A root outside any op (trace 0) is ignored.
  std::vector<Span> spans = {
      {1, 0, 1, "op", "bench", 0.0, 10.0, 1},
      {2, 1, 1, "exec", "engine", 1.0, 4.0, 1},
      {3, 2, 1, "sort", "storage", 2.0, 3.0, 1},
      {4, 1, 1, "train", "ml", 3.0, 6.0, 1},
      {5, 0, 0, "generate", "data", 0.0, 100.0, 1},
  };
  const auto self = SelfSecondsByLayer(spans);
  EXPECT_DOUBLE_EQ(self.at("bench"), 10.0 - 5.0);  // children cover [1,6]
  EXPECT_DOUBLE_EQ(self.at("engine"), 3.0 - 1.0);
  EXPECT_DOUBLE_EQ(self.at("storage"), 1.0);
  EXPECT_DOUBLE_EQ(self.at("ml"), 3.0);
  EXPECT_EQ(self.count("data"), 0u);
}

TEST(Spans, ScopedSpansNestAndUntracedOpsRecordNothing) {
  Tracer tracer(true);
  {
    ScopedSpan op(&tracer, "op", "bench", true);
    ScopedSpan child(op, "exec", "engine");
  }
  {
    ScopedSpan op(nullptr, "op", "bench", true);
    ScopedSpan child(op, "exec", "engine");
  }
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  const Span& child = spans[0];
  const Span& op = spans[1];
  EXPECT_EQ(op.trace, op.id);
  EXPECT_EQ(child.parent, op.id);
  EXPECT_EQ(child.trace, op.id);
  EXPECT_LE(op.start, child.start);
  EXPECT_GE(op.end, child.end);
}

}  // namespace
}  // namespace perfbench
