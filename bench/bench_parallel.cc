/// \file bench_parallel.cc
/// \brief Experiment E9: task and domain parallelism (Section 2: "LMFAO
/// computes the groups in parallel by exploiting both task and domain
/// parallelism").
///
/// Thread scaling of the Retailer covariance batch under the unified
/// scheduler: the hybrid task+domain scheduler swept over {1, 2, 4, hw}
/// threads. Every parallel benchmark reports `speedup` relative to a
/// sequential run measured once per process, and `peak_view_mib` (the
/// ViewStore peak) so memory can be attributed alongside the speedup.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_common.h"
#include "engine/engine.h"
#include "util/timer.h"

namespace lmfao {
namespace {

constexpr int64_t kRows = 200000;

/// Seconds per sequential evaluation, measured once per process as the
/// best of three timed runs after a warmup (the minimum is the most stable
/// estimator against one-off page-fault/migration noise in the baseline
/// every speedup counter divides by).
double SequentialSeconds() {
  static const double seconds = [] {
    RetailerData& db = bench::Retailer(kRows);
    auto cov = BuildCovarianceBatch(bench::RetailerFeatures(db), db.catalog);
    LMFAO_CHECK(cov.ok());
    Engine engine(&db.catalog, &db.tree, EngineOptions{});
    auto warmup = engine.Evaluate(cov->batch);  // Populate sort caches.
    LMFAO_CHECK(warmup.ok());
    double best = 0.0;
    for (int run = 0; run < 3; ++run) {
      Timer timer;
      auto result = engine.Evaluate(cov->batch);
      const double elapsed = timer.ElapsedSeconds();
      LMFAO_CHECK(result.ok());
      if (run == 0 || elapsed < best) best = elapsed;
    }
    return best;
  }();
  return seconds;
}

void RunScheduler(benchmark::State& state, int threads) {
  RetailerData& db = bench::Retailer(kRows);
  auto cov = BuildCovarianceBatch(bench::RetailerFeatures(db), db.catalog);
  LMFAO_CHECK(cov.ok());
  EngineOptions options;
  options.scheduler.num_threads = threads;
  Engine engine(&db.catalog, &db.tree, options);
  const double sequential = SequentialSeconds();
  auto warmup = engine.Evaluate(cov->batch);  // Symmetric with the baseline:
  LMFAO_CHECK(warmup.ok());                   // populate sort caches.
  double seconds = 0.0;
  ExecutionStats peak_stats;
  for (auto _ : state) {
    Timer timer;
    auto result = engine.Evaluate(cov->batch);
    seconds += timer.ElapsedSeconds();
    LMFAO_CHECK(result.ok()) << result.status().ToString();
    if (result->stats.peak_view_bytes >= peak_stats.peak_view_bytes) {
      peak_stats = result->stats;
    }
    benchmark::DoNotOptimize(result);
  }
  const double mean = seconds / static_cast<double>(state.iterations());
  state.counters["threads"] = options.scheduler.ResolvedThreads();
  state.counters["queries"] = cov->batch.size();
  state.counters["speedup"] = mean > 0.0 ? sequential / mean : 0.0;
  bench::ExportViewMemoryCounters(state, peak_stats);
}

void BM_Parallel_Sequential(benchmark::State& state) {
  RunScheduler(state, 1);
}
BENCHMARK(BM_Parallel_Sequential)->Unit(benchmark::kMillisecond)->MinTime(2.0);

/// The default parallel path: task + domain combined. Sweeps 1, 2, 4, and
/// hardware-concurrency (arg 0) threads.
void BM_Parallel_Hybrid(benchmark::State& state) {
  RunScheduler(state, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_Parallel_Hybrid)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(0)  // Hardware concurrency.
    ->Unit(benchmark::kMillisecond)
    ->MinTime(2.0);

}  // namespace
}  // namespace lmfao
