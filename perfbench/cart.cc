/// \file cart.cc
/// \brief Workload retailer-cart: one CART regression tree on Retailer per
/// op, every node batch evaluated through Engine::Prepare (a plan-cache hit
/// after the first tree) and PreparedBatch::Execute with the node's
/// threshold bindings.

#include <thread>

#include "baseline/join.h"
#include "ml/cart.h"
#include "workloads.h"

namespace perfbench {

using namespace lmfao;

namespace {

constexpr int64_t kInventoryRows = 100000;
constexpr int kThreads = 4;
/// Sized so one tree takes 1-2 s at 4 threads on the reference host.
CartOptions BenchCartOptions() {
  CartOptions options;
  options.max_depth = 3;
  options.num_thresholds = 8;
  return options;
}

/// What LmfaoCartProvider does (Prepare, then Execute under the node's
/// params), with the two calls timed apart and wrapped in spans.
class TimedLmfaoProvider : public CartAggregateProvider {
 public:
  explicit TimedLmfaoProvider(Engine* engine) : engine_(engine) {}

  StatusOr<std::vector<QueryResult>> EvaluateBatch(
      const QueryBatch& batch, const ParamPack& params) override {
    ++calls;
    double t0 = NowSeconds();
    StatusOr<PreparedBatch> prepared = Status::Internal("not run");
    {
      ScopedSpan span(*parent, "Engine::Prepare", "engine");
      prepared = engine_->Prepare(batch);
    }
    const double prepare_s = NowSeconds() - t0;
    provider_s += prepare_s;
    LMFAO_RETURN_NOT_OK(prepared.status());
    if (prepared->from_cache()) prepare_hit_ms.push_back(prepare_s * 1e3);

    t0 = NowSeconds();
    const double cpu0 = ProcessCpuSeconds();
    StatusOr<BatchResult> result = Status::Internal("not run");
    {
      ScopedSpan span(*parent, "PreparedBatch::Execute", "engine");
      result = prepared->Execute(params);
    }
    const double wall = NowSeconds() - t0;
    provider_s += wall;
    LMFAO_RETURN_NOT_OK(result.status());
    executes.Add(wall, ProcessCpuSeconds() - cpu0, kThreads, result->stats);
    return std::move(result->results);
  }

  /// The span node batches hang under (the current Train).
  const ScopedSpan* parent = nullptr;
  int calls = 0;
  double provider_s = 0.0;
  std::vector<double> prepare_hit_ms;
  ExecuteSamples executes;

 private:
  Engine* engine_;
};

/// ScanCartProvider over row partitions of the materialized join, one
/// thread each, summed: SUM aggregates add over any row partition, and the
/// partitions keep the oracle's cost within a run.
class PartitionedScanProvider : public CartAggregateProvider {
 public:
  PartitionedScanProvider(const Relation& joined, int parts) {
    const size_t rows = joined.num_rows();
    for (int p = 0; p < parts; ++p) {
      slices_.push_back(joined.SliceRows(rows * static_cast<size_t>(p) / parts,
                                         rows * static_cast<size_t>(p + 1) / parts));
    }
  }

  StatusOr<std::vector<QueryResult>> EvaluateBatch(
      const QueryBatch& batch, const ParamPack& params) override {
    std::vector<StatusOr<std::vector<QueryResult>>> parts(
        slices_.size(), Status::Internal("not run"));
    std::vector<std::thread> threads;
    for (size_t p = 0; p < slices_.size(); ++p) {
      threads.emplace_back([&, p] {
        ScanCartProvider scan(&slices_[p]);
        parts[p] = scan.EvaluateBatch(batch, params);
      });
    }
    for (std::thread& t : threads) t.join();
    for (const auto& part : parts) LMFAO_RETURN_NOT_OK(part.status());
    std::vector<QueryResult> sum = std::move(parts[0]).value();
    for (size_t p = 1; p < parts.size(); ++p) {
      for (size_t q = 0; q < sum.size(); ++q) {
        sum[q].data.MergeAdd((*parts[p])[q].data);
      }
    }
    return sum;
  }

 private:
  std::vector<Relation> slices_;
};

/// Whether two trees are the same model: equal shape, node counts and
/// predictions at kRelTol, and equal splits — except that two different
/// splits may match when they cut the node's rows into the same halves,
/// seen as children (and everything below them) equal straight or
/// crosswise. Such splits tie in exact arithmetic (the mirror-image
/// `x == 0` / `x == 1` of a binary feature, or two location features that
/// coincide on a node's stores), so rounding picks either, and two correct
/// evaluators may differ.
bool NodesEqual(const CartNode* a, const CartNode* b) {
  if (a->is_leaf != b->is_leaf || !Close(a->count, b->count) ||
      !Close(a->prediction, b->prediction)) {
    return false;
  }
  if (a->is_leaf) return true;
  const bool same_split = a->split.attr == b->split.attr &&
                          a->split.op == b->split.op &&
                          a->split.threshold == b->split.threshold;
  if (NodesEqual(a->left.get(), b->left.get()) &&
      NodesEqual(a->right.get(), b->right.get())) {
    return true;
  }
  return !same_split && NodesEqual(a->left.get(), b->right.get()) &&
         NodesEqual(a->right.get(), b->left.get());
}

bool TreesEqual(const DecisionTree& a, const DecisionTree& b,
                std::string* why) {
  if (a.num_nodes != b.num_nodes || a.depth != b.depth) {
    *why = "tree shape " + std::to_string(a.num_nodes) + " vs " +
           std::to_string(b.num_nodes) + " nodes";
    return false;
  }
  if (NodesEqual(a.root.get(), b.root.get())) return true;
  *why = "splits, counts or predictions differ";
  return false;
}

}  // namespace

Report RunRetailerCart(const Config& config, Tracer* tracer) {
  Report report;
  std::unique_ptr<RetailerData> db;
  {
    ScopedSpan span(tracer, "data.generate", "data", false);
    const double t0 = NowSeconds();
    db = MakeRetailerInstance(kInventoryRows, config.seed);
    report.Set("data.generate_s", NowSeconds() - t0, "s");
  }
  const FeatureSet features = RetailerFeatures(*db);
  CartTrainer trainer(features, &db->catalog, BenchCartOptions());
  const CartNodeBatch root = trainer.BuildNodeBatch({});

  // Set-up: engine construction + Prepare + first Execute of the root
  // node batch, each time on a fresh engine.
  SetupTimes setup;
  std::unique_ptr<Engine> engine;
  for (int rep = 0; rep < kSetupWarmups + kSetupRepetitions; ++rep) {
    engine.reset();
    const double start = NowSeconds();
    engine = std::make_unique<Engine>(&db->catalog, &db->tree,
                                      BenchEngineOptions(kThreads));
    auto prepared = engine->Prepare(root.batch);
    LMFAO_CHECK(prepared.ok()) << prepared.status().ToString();
    const double prepared_at = NowSeconds();
    auto result = prepared->Execute(root.params);
    LMFAO_CHECK(result.ok()) << result.status().ToString();
    if (rep >= kSetupWarmups) {
      setup.Add(start, prepared_at, NowSeconds(), result->stats);
    }
  }
  setup.ReportTo(&report);

  // Warm-up tree: compiles the deeper node shapes and is the reference
  // every timed tree is compared with.
  const ScopedSpan untraced(nullptr, "", "", false);
  TimedLmfaoProvider warmup(engine.get());
  warmup.parent = &untraced;
  auto reference = trainer.Train(&warmup);
  LMFAO_CHECK(reference.ok()) << reference.status().ToString();
  report.Note("tree: " + std::to_string(reference->num_nodes) +
              " nodes, depth " + std::to_string(reference->depth));
  TimedLmfaoProvider provider(engine.get());
  const Engine::PlanCacheStats cache_before = engine->plan_cache_stats();

  std::vector<double> split_ms, node_batches;
  DecisionTree tree;
  std::string why;
  auto op = [&](Tracer* t) {
    ScopedSpan op_span(t, "cart.op", "bench", true);
    ScopedSpan train_span(op_span, "CartTrainer::Train", "ml");
    provider.parent = &train_span;
    const double provider_before = provider.provider_s;
    const int calls_before = provider.calls;
    const double t0 = NowSeconds();
    auto trained = trainer.Train(&provider);
    const double wall = NowSeconds() - t0;
    if (!trained.ok()) return Classify(trained.status());
    split_ms.push_back((wall - (provider.provider_s - provider_before)) * 1e3);
    node_batches.push_back(provider.calls - calls_before);
    tree = std::move(trained).value();
    return Outcome::kOk;
  };
  auto check = [&] {
    if (TreesEqual(tree, *reference, &why)) return true;
    report.Fail("op tree vs warm-up tree: " + why);
    return false;
  };
  const ClosedLoopResult loop =
      RunClosedLoop(config.seconds, tracer, op, check);
  ReportClosedLoop(loop, &report);
  report.Set("peak_rss_mib", PeakRssMiB(), "MiB");

  ReportPlanCacheHitRatio(cache_before, engine->plan_cache_stats(), &report);
  report.Set("engine.prepare_hit_ms", Median(provider.prepare_hit_ms), "ms");
  provider.executes.ReportTo(&report);
  report.Set("ml.cart_split_ms", Median(split_ms), "ms");
  report.Set("ml.cart_node_batches", Median(node_batches), "count");
  engine.reset();

  // Correctness gate: the warm-up tree against one trained over the
  // materialized join with the scan provider.
  {
    ScopedSpan span(tracer, "CartTrainer::Train(scan)", "baseline", false);
    const double t0 = NowSeconds();
    auto joined = MaterializeJoin(db->catalog, db->tree, db->inventory);
    LMFAO_CHECK(joined.ok()) << joined.status().ToString();
    PartitionedScanProvider scan(*joined, kThreads);
    auto scan_tree = trainer.Train(&scan);
    LMFAO_CHECK(scan_tree.ok()) << scan_tree.status().ToString();
    report.Set("baseline.oracle_s", NowSeconds() - t0, "s");
    if (!TreesEqual(*reference, *scan_tree, &why)) {
      report.Fail("warm-up tree vs scan-trained tree: " + why);
    }
  }
  return report;
}

}  // namespace perfbench
