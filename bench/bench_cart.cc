/// \file bench_cart.cc
/// \brief Experiment E6: decision-tree node batches (Section 3).
///
/// One CART node evaluates thousands of SUM(1)/SUM(Y)/SUM(Y^2) aggregates
/// under threshold conditions (3,141 for the paper's Retailer setup; ~3.4k
/// for this synthetic schema). Node batches are *parameterized*: every
/// threshold is a ParamPack slot, so one compiled artifact serves all
/// batches of the same shape. Benchmarked: one node batch via LMFAO
/// (one-shot, prepared-execute-only, and cold-compile) versus one pass over
/// the materialized join, and full-tree training with the plan cache, where
/// only the nodes whose moments cannot be derived from a parent and a
/// sibling evaluate a batch (`node_batches`).

#include <benchmark/benchmark.h>

#include "baseline/naive_engine.h"
#include "bench_common.h"
#include "engine/engine.h"
#include "ml/cart.h"

namespace lmfao {
namespace {

constexpr int64_t kRows = 100000;

/// Forwards to another provider and counts the node batches it evaluates:
/// leaves and right children whose moments are derived run none.
class CountingProvider : public CartAggregateProvider {
 public:
  explicit CountingProvider(CartAggregateProvider* inner) : inner_(inner) {}
  StatusOr<std::vector<QueryResult>> EvaluateBatch(
      const QueryBatch& batch, const ParamPack& params) override {
    ++calls;
    return inner_->EvaluateBatch(batch, params);
  }
  int calls = 0;

 private:
  CartAggregateProvider* inner_;
};

CartOptions BenchCartOptions() {
  CartOptions options;
  options.max_depth = 2;
  options.num_thresholds = 32;
  return options;
}

/// One-shot Evaluate on a long-lived engine: iteration 1 compiles, later
/// iterations hit the structural plan cache (compile_ms shows the
/// residual).
void BM_Cart_RootNodeBatch_Lmfao(benchmark::State& state) {
  RetailerData& db = bench::Retailer(kRows);
  const FeatureSet features = bench::RetailerFeatures(db);
  CartTrainer trainer(features, &db.catalog, BenchCartOptions());
  const CartNodeBatch node = trainer.BuildNodeBatch({});
  Engine engine(&db.catalog, &db.tree, EngineOptions{});
  ExecutionStats stats;
  for (auto _ : state) {
    auto result = engine.Evaluate(node.batch, node.params);
    LMFAO_CHECK(result.ok());
    stats = result->stats;
    benchmark::DoNotOptimize(result);
  }
  state.counters["node_aggregates"] = trainer.NodeAggregateCount();
  state.counters["rows"] = static_cast<double>(kRows);
  bench::ExportTimingCounters(state, stats);
}
BENCHMARK(BM_Cart_RootNodeBatch_Lmfao)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(2.0);

/// Prepared-execute-only: compile outside the timed loop, per-iteration
/// work is Execute with fresh threshold bindings — the per-node cost of
/// CART once its batch shape is cached.
void BM_Cart_RootNodeBatch_LmfaoPreparedExecute(benchmark::State& state) {
  RetailerData& db = bench::Retailer(kRows);
  const FeatureSet features = bench::RetailerFeatures(db);
  CartTrainer trainer(features, &db.catalog, BenchCartOptions());
  const CartNodeBatch node = trainer.BuildNodeBatch({});
  Engine engine(&db.catalog, &db.tree, EngineOptions{});
  auto prepared = engine.Prepare(node.batch);
  LMFAO_CHECK(prepared.ok());
  ExecutionStats stats;
  for (auto _ : state) {
    auto result = prepared->Execute(node.params);
    LMFAO_CHECK(result.ok());
    stats = result->stats;
    benchmark::DoNotOptimize(result);
  }
  state.counters["node_aggregates"] = trainer.NodeAggregateCount();
  state.counters["rows"] = static_cast<double>(kRows);
  state.counters["prepare_ms"] = prepared->compile_seconds() * 1e3;
  bench::ExportTimingCounters(state, stats);
}
BENCHMARK(BM_Cart_RootNodeBatch_LmfaoPreparedExecute)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(2.0);

/// Cold-compile reference: a fresh engine per iteration pays all three
/// optimization layers plus the relation sorts every time (the pre-PR-5
/// per-node cost).
void BM_Cart_RootNodeBatch_LmfaoColdCompile(benchmark::State& state) {
  RetailerData& db = bench::Retailer(kRows);
  const FeatureSet features = bench::RetailerFeatures(db);
  CartTrainer trainer(features, &db.catalog, BenchCartOptions());
  const CartNodeBatch node = trainer.BuildNodeBatch({});
  ExecutionStats stats;
  for (auto _ : state) {
    Engine engine(&db.catalog, &db.tree, EngineOptions{});
    auto result = engine.Evaluate(node.batch, node.params);
    LMFAO_CHECK(result.ok());
    stats = result->stats;
    benchmark::DoNotOptimize(result);
  }
  state.counters["node_aggregates"] = trainer.NodeAggregateCount();
  bench::ExportTimingCounters(state, stats);
}
BENCHMARK(BM_Cart_RootNodeBatch_LmfaoColdCompile)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(2.0);

void BM_Cart_RootNodeBatch_ScanBaseline(benchmark::State& state) {
  RetailerData& db = bench::Retailer(kRows);
  const FeatureSet features = bench::RetailerFeatures(db);
  CartTrainer trainer(features, &db.catalog, BenchCartOptions());
  const CartNodeBatch node = trainer.BuildNodeBatch({});
  auto bound = node.batch.Bind(node.params);
  LMFAO_CHECK(bound.ok());
  const Relation& joined = bench::RetailerJoin(kRows);
  for (auto _ : state) {
    auto results = EvaluateBatchSharedScan(joined, *bound);
    LMFAO_CHECK(results.ok());
    benchmark::DoNotOptimize(results);
  }
  state.counters["node_aggregates"] = trainer.NodeAggregateCount();
}
BENCHMARK(BM_Cart_RootNodeBatch_ScanBaseline)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

/// Deeper nodes carry longer condition chains; the batch stays one pass.
void BM_Cart_DepthTwoNodeBatch_Lmfao(benchmark::State& state) {
  RetailerData& db = bench::Retailer(kRows);
  const FeatureSet features = bench::RetailerFeatures(db);
  CartTrainer trainer(features, &db.catalog, BenchCartOptions());
  const std::vector<CartCondition> path = {
      {db.maxtemp, FunctionKind::kIndicatorLe, 70.0},
      {db.category, FunctionKind::kIndicatorEq, 3.0}};
  const CartNodeBatch node = trainer.BuildNodeBatch(path);
  Engine engine(&db.catalog, &db.tree, EngineOptions{});
  ExecutionStats stats;
  for (auto _ : state) {
    auto result = engine.Evaluate(node.batch, node.params);
    LMFAO_CHECK(result.ok());
    stats = result->stats;
    benchmark::DoNotOptimize(result);
  }
  bench::ExportTimingCounters(state, stats);
}
BENCHMARK(BM_Cart_DepthTwoNodeBatch_Lmfao)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(2.0);

/// Full training on one long-lived engine: parameterized node batches +
/// the structural plan cache mean same-shape node batches (and every
/// retrain) reuse compiled artifacts — plan_cache_hits counts the saved
/// compiles, node_batches the provider calls of one tree.
void BM_Cart_FullTree_Lmfao(benchmark::State& state) {
  RetailerData& db = bench::Retailer(kRows);
  const FeatureSet features = bench::RetailerFeatures(db);
  CartTrainer trainer(features, &db.catalog, BenchCartOptions());
  Engine engine(&db.catalog, &db.tree, EngineOptions{});
  LmfaoCartProvider lmfao(&engine);
  int nodes = 0;
  int node_batches = 0;
  for (auto _ : state) {
    CountingProvider provider(&lmfao);
    auto tree = trainer.Train(&provider);
    LMFAO_CHECK(tree.ok());
    nodes = tree->num_nodes;
    node_batches = provider.calls;
    benchmark::DoNotOptimize(tree);
  }
  const Engine::PlanCacheStats cache = engine.plan_cache_stats();
  state.counters["tree_nodes"] = nodes;
  state.counters["node_batches"] = node_batches;
  state.counters["plan_cache_hits"] = static_cast<double>(cache.hits);
  state.counters["plan_cache_shapes"] = static_cast<double>(cache.entries);
}
BENCHMARK(BM_Cart_FullTree_Lmfao)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

/// The same training with a fresh engine per tree: no cross-train reuse,
/// only intra-tree shape sharing. The gap to BM_Cart_FullTree_Lmfao is the
/// plan cache's contribution to retrain-heavy serving.
void BM_Cart_FullTree_LmfaoColdCache(benchmark::State& state) {
  RetailerData& db = bench::Retailer(kRows);
  const FeatureSet features = bench::RetailerFeatures(db);
  CartTrainer trainer(features, &db.catalog, BenchCartOptions());
  int nodes = 0;
  int node_batches = 0;
  for (auto _ : state) {
    Engine engine(&db.catalog, &db.tree, EngineOptions{});
    LmfaoCartProvider lmfao(&engine);
    CountingProvider provider(&lmfao);
    auto tree = trainer.Train(&provider);
    LMFAO_CHECK(tree.ok());
    nodes = tree->num_nodes;
    node_batches = provider.calls;
    benchmark::DoNotOptimize(tree);
  }
  state.counters["tree_nodes"] = nodes;
  state.counters["node_batches"] = node_batches;
}
BENCHMARK(BM_Cart_FullTree_LmfaoColdCache)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

}  // namespace
}  // namespace lmfao
