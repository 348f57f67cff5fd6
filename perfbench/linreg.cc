/// \file linreg.cc
/// \brief Workload retailer-linreg: the paper's 814-query covariance batch
/// on Retailer, executed through a prepared handle at 4 threads, then Sigma
/// assembly and ridge BGD — one trained model per op.

#include "baseline/join.h"
#include "ml/linreg.h"
#include "workloads.h"

namespace perfbench {

using namespace lmfao;

namespace {

constexpr int64_t kInventoryRows = 200000;
constexpr int kThreads = 4;
/// BGD converges in a few dozen iterations on this Sigma; the model is
/// compared loosely because its stopping iteration can move with the last
/// bits of Sigma (4-thread merges sum in a run-dependent order).
constexpr double kModelRelTol = 1e-6;

bool SigmaClose(const SigmaMatrix& a, const SigmaMatrix& b, std::string* why) {
  if (a.index.dim != b.index.dim || a.data.size() != b.data.size()) {
    *why = "sigma dim " + std::to_string(a.index.dim) + " vs " +
           std::to_string(b.index.dim);
    return false;
  }
  for (size_t i = 0; i < a.data.size(); ++i) {
    if (!Close(a.data[i], b.data[i])) {
      *why = "sigma entry " + std::to_string(i) + ": " +
             std::to_string(a.data[i]) + " vs " + std::to_string(b.data[i]);
      return false;
    }
  }
  return true;
}

bool ModelClose(const BgdResult& a, const BgdResult& b) {
  if (a.theta.size() != b.theta.size()) return false;
  for (size_t i = 0; i < a.theta.size(); ++i) {
    const double scale =
        std::max({1.0, std::fabs(a.theta[i]), std::fabs(b.theta[i])});
    if (std::fabs(a.theta[i] - b.theta[i]) > kModelRelTol * scale) {
      return false;
    }
  }
  return true;
}

}  // namespace

Report RunRetailerLinreg(const Config& config, Tracer* tracer) {
  Report report;
  std::unique_ptr<RetailerData> db;
  {
    ScopedSpan span(tracer, "data.generate", "data", false);
    const double t0 = NowSeconds();
    db = MakeRetailerInstance(kInventoryRows, config.seed);
    report.Set("data.generate_s", NowSeconds() - t0, "s");
  }
  const FeatureSet features = RetailerFeatures(*db);
  auto cov = BuildCovarianceBatch(features, db->catalog);
  LMFAO_CHECK(cov.ok()) << cov.status().ToString();

  // Set-up: engine construction + Prepare + first Execute, each time on a
  // fresh engine (cold plan and sorted-relation caches).
  SetupTimes setup;
  std::unique_ptr<Engine> engine;
  PreparedBatch prepared;
  BatchResult first;
  for (int rep = 0; rep < kSetupWarmups + kSetupRepetitions; ++rep) {
    prepared = PreparedBatch();
    engine.reset();
    const double start = NowSeconds();
    engine = std::make_unique<Engine>(&db->catalog, &db->tree,
                                      BenchEngineOptions(kThreads));
    auto p = engine->Prepare(cov->batch);
    LMFAO_CHECK(p.ok()) << p.status().ToString();
    prepared = std::move(p).value();
    const double prepared_at = NowSeconds();
    auto r = prepared.Execute();
    LMFAO_CHECK(r.ok()) << r.status().ToString();
    first = std::move(r).value();
    if (rep >= kSetupWarmups) {
      setup.Add(start, prepared_at, NowSeconds(), first.stats);
    }
  }
  setup.ReportTo(&report);
  {
    const double t0 = NowSeconds();
    auto again = engine->Prepare(cov->batch);
    LMFAO_CHECK(again.ok() && again->from_cache());
    report.Set("engine.prepare_hit_ms", (NowSeconds() - t0) * 1e3, "ms");
  }

  auto sigma_ref = AssembleSigma(*cov, features, first.results);
  LMFAO_CHECK(sigma_ref.ok()) << sigma_ref.status().ToString();
  auto model_ref = TrainRidgeBgd(*sigma_ref);
  LMFAO_CHECK(model_ref.ok()) << model_ref.status().ToString();
  first = BatchResult();

  // Timed loop.
  const Engine::PlanCacheStats cache_before = engine->plan_cache_stats();
  ExecuteSamples executes;
  std::vector<double> assemble_ms, bgd_ms;
  SigmaMatrix sigma;
  BgdResult model;
  std::string why;
  auto op = [&](Tracer* t) {
    ScopedSpan op_span(t, "linreg.op", "bench", true);
    double t0 = NowSeconds();
    const double cpu0 = ProcessCpuSeconds();
    StatusOr<BatchResult> result = Status::Internal("not run");
    {
      ScopedSpan span(op_span, "PreparedBatch::Execute", "engine");
      result = prepared.Execute();
    }
    const double wall = NowSeconds() - t0;
    if (!result.ok()) return Classify(result.status());
    executes.Add(wall, ProcessCpuSeconds() - cpu0, kThreads, result->stats);

    t0 = NowSeconds();
    StatusOr<SigmaMatrix> s = Status::Internal("not run");
    {
      ScopedSpan span(op_span, "AssembleSigma", "ml");
      s = AssembleSigma(*cov, features, result->results);
    }
    assemble_ms.push_back((NowSeconds() - t0) * 1e3);
    if (!s.ok()) return Outcome::kError;
    t0 = NowSeconds();
    StatusOr<BgdResult> m = Status::Internal("not run");
    {
      ScopedSpan span(op_span, "TrainRidgeBgd", "ml");
      m = TrainRidgeBgd(*s);
    }
    bgd_ms.push_back((NowSeconds() - t0) * 1e3);
    if (!m.ok()) return Outcome::kError;
    sigma = std::move(s).value();
    model = std::move(m).value();
    return Outcome::kOk;
  };
  auto check = [&] {
    if (!SigmaClose(sigma, *sigma_ref, &why)) {
      report.Fail("op sigma vs set-up reference: " + why);
      return false;
    }
    if (!ModelClose(model, *model_ref)) {
      report.Fail("op model vs set-up reference");
      return false;
    }
    return true;
  };
  const ClosedLoopResult loop =
      RunClosedLoop(config.seconds, tracer, op, check);
  ReportClosedLoop(loop, &report);
  report.Set("peak_rss_mib", PeakRssMiB(), "MiB");

  executes.ReportTo(&report);
  ReportPlanCacheHitRatio(cache_before, engine->plan_cache_stats(), &report);
  report.Set("ml.sigma_assemble_ms", Median(assemble_ms), "ms");
  report.Set("ml.bgd_ms", Median(bgd_ms), "ms");
  prepared = PreparedBatch();
  engine.reset();

  // Correctness gate: the set-up Sigma against a scan of the materialized
  // join (after the timed loop, so the join does not count in peak RSS).
  {
    ScopedSpan span(tracer, "ComputeSigmaScan", "baseline", false);
    const double t0 = NowSeconds();
    auto joined = MaterializeJoin(db->catalog, db->tree, db->inventory);
    LMFAO_CHECK(joined.ok()) << joined.status().ToString();
    auto scan = ComputeSigmaScan(*joined, features, db->catalog);
    LMFAO_CHECK(scan.ok()) << scan.status().ToString();
    report.Set("baseline.oracle_s", NowSeconds() - t0, "s");
    if (!SigmaClose(*sigma_ref, *scan, &why)) {
      report.Fail("set-up sigma vs ComputeSigmaScan: " + why);
    }
  }
  return report;
}

}  // namespace perfbench
