/// \file bench_dist.cc
/// \brief Sharded execution: the shard sweep over the Retailer covariance
/// batch (Arg = shard count).
///
/// The shards run sequentially in one process. Each shard copies a range
/// of the partitioned relation's cached sort order, so no shard sorts its
/// slice; what sharding still adds over the unsharded execute is
/// re-running, once per shard, every group whose input closure excludes
/// the partitioned relation (on Retailer mainly the Weather group), plus
/// the fold. work_ratio is the total-work cost: sharded execute time over
/// the unsharded execute. merge_ms is the MergeAdd time folding the shard
/// results together and merge_overhead_pct charges it against the
/// unsharded execute; shard_skew shows how balanced the split is.
///
/// Every counter is a median: the sharded figures over all timed
/// iterations, the unsharded reference over kReferenceRuns warm executes.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "bench_common.h"
#include "engine/engine.h"

namespace lmfao {
namespace {

constexpr int64_t kRetailerRows = 200000;
constexpr int kReferenceRuns = 5;

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  return samples[mid];
}

void BM_Dist_RetailerCovariance_ShardSweep(benchmark::State& state) {
  RetailerData& db = bench::Retailer(kRetailerRows);
  auto cov = BuildCovarianceBatch(bench::RetailerFeatures(db), db.catalog);
  LMFAO_CHECK(cov.ok());
  Engine engine(&db.catalog, &db.tree, EngineOptions{});
  auto prepared = engine.Prepare(cov->batch);
  LMFAO_CHECK(prepared.ok());
  // The unsharded reference the merge overhead and work ratio are charged
  // against, run on a warm sorted-relation cache like the timed shards.
  LMFAO_CHECK(prepared->Execute().ok());
  std::vector<double> full_ms;
  for (int run = 0; run < kReferenceRuns; ++run) {
    auto full = prepared->Execute();
    LMFAO_CHECK(full.ok());
    full_ms.push_back(full->stats.execute_seconds * 1e3);
  }
  const double reference_ms = Median(full_ms);

  ExecRequest request;
  request.shards = static_cast<int>(state.range(0));
  std::vector<double> execute_ms;
  std::vector<double> merge_ms;
  std::vector<double> skew;
  int shards = 0;
  for (auto _ : state) {
    auto result = prepared->Execute(request);
    LMFAO_CHECK(result.ok()) << result.status().ToString();
    const ExecutionStats& stats = result->stats;
    execute_ms.push_back(stats.execute_seconds * 1e3);
    merge_ms.push_back(stats.merge_seconds * 1e3);
    skew.push_back(stats.shard_mean_seconds > 0.0
                       ? stats.shard_max_seconds / stats.shard_mean_seconds
                       : 1.0);
    shards = stats.dist_shards;
    benchmark::DoNotOptimize(result);
  }

  state.counters["queries"] = cov->batch.size();
  state.counters["shards"] = shards;
  state.counters["execute_ms"] = Median(execute_ms);
  state.counters["merge_ms"] = Median(merge_ms);
  state.counters["shard_skew"] = Median(skew);
  state.counters["work_ratio"] =
      reference_ms > 0.0 ? Median(execute_ms) / reference_ms : 0.0;
  state.counters["merge_overhead_pct"] =
      reference_ms > 0.0 ? 100.0 * Median(merge_ms) / reference_ms : 0.0;
}
BENCHMARK(BM_Dist_RetailerCovariance_ShardSweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(1.0);

}  // namespace
}  // namespace lmfao
