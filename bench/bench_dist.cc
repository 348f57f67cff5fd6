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

#include <benchmark/benchmark.h>


#include "bench_common.h"
#include "engine/engine.h"

namespace lmfao {
namespace {

constexpr int64_t kRetailerRows = 200000;

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
  auto full = prepared->Execute();
  LMFAO_CHECK(full.ok());

  const int shards = static_cast<int>(state.range(0));
  ExecutionStats stats;
  for (auto _ : state) {
    auto result = prepared->ExecuteSharded(shards);
    LMFAO_CHECK(result.ok()) << result.status().ToString();
    stats = result->stats;
    benchmark::DoNotOptimize(result);
  }

  state.counters["queries"] = cov->batch.size();
  state.counters["shards"] = stats.dist_shards;
  state.counters["execute_ms"] = stats.execute_seconds * 1e3;
  state.counters["merge_ms"] = stats.merge_seconds * 1e3;
  state.counters["shard_skew"] =
      stats.shard_mean_seconds > 0.0
          ? stats.shard_max_seconds / stats.shard_mean_seconds
          : 1.0;
  state.counters["work_ratio"] =
      full->stats.execute_seconds > 0.0
          ? stats.execute_seconds / full->stats.execute_seconds
          : 0.0;
  state.counters["merge_overhead_pct"] =
      full->stats.execute_seconds > 0.0
          ? 100.0 * stats.merge_seconds / full->stats.execute_seconds
          : 0.0;
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
