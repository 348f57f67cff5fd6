/// \file delta_execution_test.cc
/// \brief Incremental delta execution (ExecRequest::delta_base), pinned
/// differentially: randomized append schedules must refresh results
/// bit-for-bit equal to a full recompute AND to the naive scan baseline
/// (exact: the generator emits integer-valued data whose sums stay well
/// below 2^53, so floating-point addition is associative on it), across
/// engine configurations; plus the epoch/watermark contract (appends keep
/// handles valid, pinned old-epoch executions are unaffected, refreshes to
/// a pinned epoch equal ExecuteAt it, an older epoch that is re-read stays
/// in the sorted cache, non-append mutations fail cleanly), concurrent
/// appends-vs-executes (exercised under TSan by the tsan ctest preset),
/// one deadline across all delta passes, and fault injection through the
/// per-pass `engine.pass` seam with zero leaked views.

#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/join.h"
#include "baseline/naive_engine.h"
#include "data/favorita.h"
#include "differential_harness.h"
#include "engine/engine.h"
#include "exact_generator.h"
#include "storage/view_store.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace lmfao {
namespace {

using ::lmfao::testing::AppendRandomRows;
using ::lmfao::testing::AppendSchedule;
using ::lmfao::testing::DeltaRequest;
using ::lmfao::testing::ExactDatabase;
using ::lmfao::testing::ExpectResultsMatch;
using ::lmfao::testing::MakeExactBatch;
using ::lmfao::testing::MakeExactDatabase;

/// Saves the ambient failpoint configuration (the CI failpoints job sets
/// LMFAO_FAILPOINTS for the whole binary) and restores it on scope exit.
class FailpointGuard {
 public:
  FailpointGuard() : saved_(Failpoints::CurrentSpec()) {}
  ~FailpointGuard() {
    if (saved_.empty()) {
      Failpoints::Clear();
    } else {
      (void)Failpoints::Configure(saved_);
    }
    Failpoints::ClearParked();
  }

 private:
  std::string saved_;
};

/// Appends random rounds until the catalog's epoch moves.
void AppendUntilEpochMoves(ExactDatabase* db, Rng* rng,
                           AppendSchedule* schedule) {
  const EpochSnapshot before = db->catalog.SnapshotEpoch();
  while (db->catalog.SnapshotEpoch().rows == before.rows) {
    ASSERT_NO_FATAL_FAILURE(AppendRandomRows(db, rng, schedule));
  }
}

/// Appends `rows` integer-exact rows to every relation, so a refresh across
/// the append runs one delta pass per relation.
void GrowEveryRelation(ExactDatabase* db, Rng* rng, int rows) {
  for (RelationId r = 0; r < db->catalog.num_relations(); ++r) {
    const Relation& rel = db->catalog.relation(r);
    std::vector<std::vector<Value>> batch_rows(static_cast<size_t>(rows));
    for (std::vector<Value>& row : batch_rows) {
      for (int c = 0; c < rel.num_columns(); ++c) {
        const int64_t v = rng->UniformInt(-3, 3);
        row.push_back(rel.column(c).type() == AttrType::kInt
                          ? Value::Int(v)
                          : Value::Double(static_cast<double>(v)));
      }
    }
    ASSERT_TRUE(db->catalog.AppendRows(r, batch_rows).ok());
  }
}

class DeltaFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeltaFuzzTest, RefreshMatchesRecomputeAndBaselineBitForBit) {
  struct Config {
    bool factorize = true;
    bool freeze = true;
    int threads = 1;
  };
  const std::vector<Config> configs = {
      {true, true, 1},   // Default: frozen sorted views (both layouts).
      {true, false, 1},  // All views stay in hash form.
      {false, true, 1},  // Unfactorized leaf writes.
      {true, true, 3},   // Hybrid scheduler.
  };
  for (size_t ci = 0; ci < configs.size(); ++ci) {
    Rng rng(GetParam() * 131 + ci);
    ExactDatabase db = MakeExactDatabase(&rng);
    const QueryBatch batch = MakeExactBatch(db, &rng);
    AppendSchedule schedule;
    // SCOPED_TRACE renders its message eagerly, so the seed-only trace
    // covers the pre-append assertions and each round re-scopes a trace
    // with the schedule recorded so far.
    LMFAO_REPRO_TRACE(GetParam() * 131 + ci);

    EngineOptions options;
    options.plan.factorize = configs[ci].factorize;
    options.plan.freeze_views = configs[ci].freeze;
    options.scheduler.num_threads = configs[ci].threads;
    Engine engine(&db.catalog, &db.tree, options);
    auto prepared = engine.Prepare(batch);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

    const EpochSnapshot epoch0 = db.catalog.SnapshotEpoch();
    auto current = prepared->Execute();
    ASSERT_TRUE(current.ok()) << current.status().ToString();
    const BatchResult result0 = *current;

    for (int round = 0; round < 3; ++round) {
      ASSERT_NO_FATAL_FAILURE(AppendRandomRows(&db, &rng, &schedule));
      LMFAO_REPRO_TRACE(GetParam() * 131 + ci, schedule);
      auto refreshed = prepared->Execute(DeltaRequest(*current));
      ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
      EXPECT_TRUE(refreshed->stats.delta_execution);

      // Oracle 1: full recompute through the same prepared handle.
      auto full = prepared->Execute();
      ASSERT_TRUE(full.ok()) << full.status().ToString();
      ExpectResultsMatch(refreshed->results, full->results, 0.0,
                         "round " + std::to_string(round) +
                             ": delta refresh vs full recompute");

      // Oracle 2: the naive scan baseline over the re-materialized join.
      auto joined = MaterializeJoin(db.catalog, db.tree, 0);
      ASSERT_TRUE(joined.ok()) << joined.status().ToString();
      auto baseline = EvaluateBatchSharedScan(*joined, batch);
      ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
      ExpectResultsMatch(refreshed->results, *baseline, 0.0,
                         "round " + std::to_string(round) +
                             ": delta refresh vs scan baseline");

      current = std::move(refreshed);
    }

    // Epoch pinning: re-executing at the initial snapshot still returns
    // the initial results bit-for-bit, all appends notwithstanding.
    auto pinned = prepared->ExecuteAt(epoch0);
    ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
    ExpectResultsMatch(pinned->results, result0.results, 0.0,
                       "pinned old-epoch execute");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaFuzzTest,
                         ::testing::Range<uint64_t>(1, 26));

class DeltaContractTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto data = MakeFavorita(FavoritaOptions{.num_sales = 1500});
    ASSERT_TRUE(data.ok());
    data_ = std::move(data).value();
  }

  /// Appends `n` synthetic Sales rows that join with existing dimensions.
  void AppendSales(int n, uint64_t seed = 7) {
    Rng rng(seed);
    std::vector<std::vector<Value>> rows;
    for (int i = 0; i < n; ++i) {
      rows.push_back({Value::Int(rng.UniformInt(0, 89)),
                      Value::Int(rng.UniformInt(0, 17)),
                      Value::Int(rng.UniformInt(0, 399)),
                      Value::Double(static_cast<double>(
                          rng.UniformInt(1, 20))),
                      Value::Int(rng.UniformInt(0, 1))});
    }
    ASSERT_TRUE(data_->catalog.AppendRows(data_->sales, rows).ok());
  }

  std::unique_ptr<FavoritaData> data_;
};

TEST_F(DeltaContractTest, AppendKeepsHandlesValidAndDeltaMatchesRecompute) {
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  const QueryBatch batch = MakeExampleBatch(*data_);
  auto prepared = engine.Prepare(batch);
  ASSERT_TRUE(prepared.ok());
  auto base = prepared->Execute();
  ASSERT_TRUE(base.ok());

  AppendSales(150);

  // The handle survives the append (no InvalidateCaches) and a plain
  // Execute sees the appended rows.
  auto full = prepared->Execute();
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  auto refreshed = prepared->Execute(DeltaRequest(*base));
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_TRUE(refreshed->stats.delta_execution);
  EXPECT_EQ(refreshed->stats.delta_passes, 1);
  EXPECT_EQ(refreshed->stats.delta_rows, 150u);
  EXPECT_GT(refreshed->stats.delta_dirty_groups, 0);
  // Favorita data has non-integer doubles, so base+delta vs one-pass
  // summation differ by rounding only.
  ExpectResultsMatch(refreshed->results, full->results, 1e-9,
                     "delta refresh vs full recompute");

  // A fresh engine (cold caches) agrees too.
  Engine cold(&data_->catalog, &data_->tree, EngineOptions{});
  auto cold_result = cold.Evaluate(batch);
  ASSERT_TRUE(cold_result.ok());
  ExpectResultsMatch(refreshed->results, cold_result->results, 1e-9,
                     "delta refresh vs cold engine");
}

TEST_F(DeltaContractTest, NoAppendsIsAZeroPassCopy) {
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  auto prepared = engine.Prepare(MakeExampleBatch(*data_));
  ASSERT_TRUE(prepared.ok());
  auto base = prepared->Execute();
  ASSERT_TRUE(base.ok());

  // An empty append commits an epoch but changes no watermark.
  ASSERT_TRUE(data_->catalog.AppendRows(data_->sales, {}).ok());

  auto refreshed = prepared->Execute(DeltaRequest(*base));
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_TRUE(refreshed->stats.delta_execution);
  EXPECT_EQ(refreshed->stats.delta_passes, 0);
  EXPECT_EQ(refreshed->stats.delta_rows, 0u);
  ExpectResultsMatch(refreshed->results, base->results, 0.0,
                     "zero-delta refresh");
}

TEST_F(DeltaContractTest, RepeatedRefreshFromOneBase) {
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  auto prepared = engine.Prepare(MakeExampleBatch(*data_));
  ASSERT_TRUE(prepared.ok());
  auto base = prepared->Execute();
  ASSERT_TRUE(base.ok());
  AppendSales(80);

  // A delta refresh is functional: the base is untouched, so refreshing from
  // it twice gives identical results.
  auto first = prepared->Execute(DeltaRequest(*base));
  auto second = prepared->Execute(DeltaRequest(*base));
  ASSERT_TRUE(first.ok() && second.ok());
  ExpectResultsMatch(first->results, second->results, 0.0,
                     "repeated refresh from one base");
  // And the refreshed result seeds further refreshes.
  AppendSales(40, /*seed=*/11);
  auto chained = prepared->Execute(DeltaRequest(*first));
  auto full = prepared->Execute();
  ASSERT_TRUE(chained.ok() && full.ok());
  ExpectResultsMatch(chained->results, full->results, 1e-9,
                     "chained refresh vs full recompute");
}

TEST_F(DeltaContractTest, StaleHandleAfterNonAppendMutation) {
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  auto prepared = engine.Prepare(MakeExampleBatch(*data_));
  ASSERT_TRUE(prepared.ok());
  auto base = prepared->Execute();
  ASSERT_TRUE(base.ok());

  // A structural mutation (simulated by its required InvalidateCaches
  // call) must fail a delta refresh with FailedPrecondition, distinctly from
  // appends, which keep the handle live.
  engine.InvalidateCaches();
  auto stale = prepared->Execute(DeltaRequest(*base));
  EXPECT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(DeltaContractTest, ShrunkWatermarkFailsAsNonAppendMutation) {
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  auto prepared = engine.Prepare(MakeExampleBatch(*data_));
  ASSERT_TRUE(prepared.ok());
  auto base = prepared->Execute();
  ASSERT_TRUE(base.ok());

  // A base whose watermark exceeds the live relation means rows were
  // deleted behind the epoch API's back.
  BatchResult doctored = *base;
  doctored.epoch.rows[static_cast<size_t>(data_->sales)] += 10;
  auto refreshed = prepared->Execute(DeltaRequest(doctored));
  EXPECT_FALSE(refreshed.ok());
  EXPECT_EQ(refreshed.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(DeltaContractTest, MismatchedBaseIsRejected) {
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  const QueryBatch batch = MakeExampleBatch(*data_);
  auto prepared = engine.Prepare(batch);
  ASSERT_TRUE(prepared.ok());

  // Base from a different batch shape: artifact signature mismatch.
  QueryBatch other;
  {
    Query q;
    q.name = "count_only";
    q.aggregates.push_back(Aggregate::Count());
    other.Add(std::move(q));
  }
  auto other_prepared = engine.Prepare(other);
  ASSERT_TRUE(other_prepared.ok());
  auto other_base = other_prepared->Execute();
  ASSERT_TRUE(other_base.ok());
  auto mixed = prepared->Execute(DeltaRequest(*other_base));
  EXPECT_FALSE(mixed.ok());
  EXPECT_EQ(mixed.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DeltaContractTest, ParameterBindingsMustMatchTheBase) {
  QueryBatch batch;
  {
    Query q;
    q.name = "promo_units_by_family";
    q.group_by = {data_->family};
    q.aggregates.push_back(Aggregate(
        {Factor{data_->promo,
                Function::IndicatorParam(FunctionKind::kIndicatorEq, 0)},
         Factor{data_->units, Function::Identity()}}));
    batch.Add(std::move(q));
  }
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  auto prepared = engine.Prepare(batch);
  ASSERT_TRUE(prepared.ok());

  ParamPack promo;
  promo.Set(0, 1.0);
  auto base = prepared->Execute(promo);
  ASSERT_TRUE(base.ok());
  AppendSales(60);

  // Different binding: not a delta of this base.
  ParamPack nonpromo;
  nonpromo.Set(0, 0.0);
  auto wrong = prepared->Execute(DeltaRequest(*base, nonpromo));
  EXPECT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);

  // Same binding: refresh matches the full parameterized recompute.
  auto refreshed = prepared->Execute(DeltaRequest(*base, promo));
  auto full = prepared->Execute(promo);
  ASSERT_TRUE(refreshed.ok() && full.ok());
  ExpectResultsMatch(refreshed->results, full->results, 1e-9,
                     "parameterized delta refresh");
}

/// The concurrency pin of the epoch model: a writer thread appends while
/// reader threads execute pinned to the pre-append epoch; every pinned
/// result must be bit-identical to the pre-append reference (and the run
/// must be TSan-clean — this test is in the tsan preset filter).
TEST_F(DeltaContractTest, ConcurrentAppendsDoNotPerturbOldEpochExecutes) {
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  auto prepared = engine.Prepare(MakeExampleBatch(*data_));
  ASSERT_TRUE(prepared.ok());

  const EpochSnapshot epoch0 = data_->catalog.SnapshotEpoch();
  auto ref = prepared->ExecuteAt(epoch0);
  ASSERT_TRUE(ref.ok());

  constexpr int kReaders = 4;
  constexpr int kExecutesPerReader = 5;
  constexpr int kAppendBatches = 24;
  std::vector<std::vector<StatusOr<BatchResult>>> got(
      kReaders);

  std::thread writer([&] {
    Rng rng(99);
    for (int i = 0; i < kAppendBatches; ++i) {
      std::vector<std::vector<Value>> rows;
      for (int k = 0; k < 25; ++k) {
        rows.push_back({Value::Int(rng.UniformInt(0, 89)),
                        Value::Int(rng.UniformInt(0, 17)),
                        Value::Int(rng.UniformInt(0, 399)),
                        Value::Double(static_cast<double>(
                            rng.UniformInt(1, 20))),
                        Value::Int(rng.UniformInt(0, 1))});
      }
      LMFAO_CHECK(data_->catalog.AppendRows(data_->sales, rows).ok());
    }
  });
  {
    std::vector<std::thread> readers;
    for (int t = 0; t < kReaders; ++t) {
      readers.emplace_back([&, t] {
        for (int i = 0; i < kExecutesPerReader; ++i) {
          got[static_cast<size_t>(t)].push_back(
              prepared->ExecuteAt(epoch0));
        }
      });
    }
    for (std::thread& th : readers) th.join();
  }
  writer.join();

  for (int t = 0; t < kReaders; ++t) {
    for (const auto& result : got[static_cast<size_t>(t)]) {
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ExpectResultsMatch(result->results, ref->results, 0.0,
                         "pinned execute during concurrent appends, thread " +
                             std::to_string(t));
    }
  }

  // All appends committed: a delta refresh of the pre-append result now
  // agrees with a full recompute.
  auto refreshed = prepared->Execute(DeltaRequest(*ref));
  auto full = prepared->Execute();
  ASSERT_TRUE(refreshed.ok() && full.ok());
  EXPECT_EQ(refreshed->stats.delta_rows,
            static_cast<size_t>(kAppendBatches) * 25u);
  ExpectResultsMatch(refreshed->results, full->results, 1e-9,
                     "post-concurrency delta refresh");
}

// --- Request combinations ------------------------------------------------

// A delta request may also pin its target epoch; the refresh must equal the
// plain execution at that epoch, and seed a later refresh.
TEST(RequestShapeTest, DeltaToAPinnedEpochEqualsExecuteAt) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 131);
    ExactDatabase db = MakeExactDatabase(&rng);
    const QueryBatch batch = MakeExactBatch(db, &rng);
    AppendSchedule schedule;
    Engine engine(&db.catalog, &db.tree, EngineOptions{});
    auto prepared = engine.Prepare(batch);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    auto base = prepared->Execute();
    ASSERT_TRUE(base.ok()) << base.status().ToString();

    ASSERT_NO_FATAL_FAILURE(AppendUntilEpochMoves(&db, &rng, &schedule));
    const EpochSnapshot between = db.catalog.SnapshotEpoch();
    ASSERT_NO_FATAL_FAILURE(AppendUntilEpochMoves(&db, &rng, &schedule));
    LMFAO_REPRO_TRACE(seed * 131, schedule);

    ExecRequest request = DeltaRequest(*base);
    request.epoch = between;
    auto refreshed = prepared->Execute(request);
    ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
    EXPECT_TRUE(refreshed->stats.delta_execution);
    EXPECT_GE(refreshed->stats.delta_passes, 1);
    EXPECT_EQ(refreshed->epoch.rows, between.rows);
    auto at = prepared->ExecuteAt(between);
    ASSERT_TRUE(at.ok()) << at.status().ToString();
    ExpectResultsMatch(refreshed->results, at->results, 0.0,
                       "delta to a pinned epoch vs ExecuteAt it");

    // The pinned refresh seeds the next one, to the current epoch.
    auto current = prepared->Execute(DeltaRequest(*refreshed));
    ASSERT_TRUE(current.ok()) << current.status().ToString();
    auto full = prepared->Execute();
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    ExpectResultsMatch(current->results, full->results, 0.0,
                       "delta from a pinned refresh vs full execute");
  }
}

// --- Sorted cache ---------------------------------------------------------

// The sorted cache keeps two epochs per (relation, order). Reading an epoch
// older than both must cache it in place of the older of the two, not
// build it and drop it at once: otherwise every ExecuteAt of that epoch
// sorts its relations again.
TEST(SortedCacheTest, ReReadOfAnOlderEpochStaysCached) {
  Rng rng(8128);
  ExactDatabase db = MakeExactDatabase(&rng);
  Engine engine(&db.catalog, &db.tree, EngineOptions{});
  auto prepared = engine.Prepare(MakeExactBatch(db, &rng));
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  const EpochSnapshot epoch0 = db.catalog.SnapshotEpoch();
  ASSERT_TRUE(prepared->Execute().ok());
  // Two newer epochs displace epoch0 from the cache.
  for (int round = 0; round < 2; ++round) {
    ASSERT_NO_FATAL_FAILURE(GrowEveryRelation(&db, &rng, 2));
    ASSERT_TRUE(prepared->Execute().ok());
  }

  auto first = prepared->ExecuteAt(epoch0);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const size_t built = engine.plan_cache_stats().sorted_builds;
  auto again = prepared->ExecuteAt(epoch0);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(engine.plan_cache_stats().sorted_builds, built)
      << "a second ExecuteAt of the older epoch sorted it again";
  // The newest epoch stayed cached as well.
  ASSERT_TRUE(prepared->Execute().ok());
  EXPECT_EQ(engine.plan_cache_stats().sorted_builds, built);
  ExpectResultsMatch(again->results, first->results, 0.0,
                     "cached older epoch vs its first read");
}

// --- Faults and limits across delta passes --------------------------------

/// An exact database whose every relation grew since `base_`, so a refresh
/// of `base_` runs one delta pass per relation (at least three).
class DeltaFailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Failpoints::Clear();
    Failpoints::ClearParked();
    Rng rng(31337);
    db_ = std::make_unique<ExactDatabase>(MakeExactDatabase(&rng));
    engine_ = std::make_unique<Engine>(&db_->catalog, &db_->tree,
                                       EngineOptions{});
    auto prepared = engine_->Prepare(MakeExactBatch(*db_, &rng));
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    prepared_ = std::move(prepared).value();
    auto base = prepared_.Execute();
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    base_ = std::move(base).value();
    base_copy_ = base_;
    ASSERT_NO_FATAL_FAILURE(GrowEveryRelation(db_.get(), &rng, 3));
    auto oracle = prepared_.Execute();
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    oracle_ = std::move(oracle).value();
    ASSERT_GE(db_->catalog.num_relations(), 2);
  }

  /// Injects at `spec`, expects the delta refresh to fail without leaking
  /// views or touching the base, then expects the same base to refresh
  /// exactly after Clear. Returns the seam's hits in the failed call.
  uint64_t CheckInjectionAndRecovery(const std::string& spec) {
    FailpointGuard guard;
    const size_t base_views = ViewStore::GlobalLiveViews();
    const size_t base_bytes = ViewStore::GlobalLiveBytes();
    EXPECT_TRUE(Failpoints::Configure(spec).ok());

    auto failed = prepared_.Execute(DeltaRequest(base_));
    EXPECT_FALSE(failed.ok()) << spec << " did not inject";
    const uint64_t hits = Failpoints::Hits("engine.pass");
    // The failed refresh unwound completely: no pass or half-folded result
    // keeps views alive, and the held base is as it was.
    EXPECT_EQ(ViewStore::GlobalLiveViews(), base_views);
    EXPECT_EQ(ViewStore::GlobalLiveBytes(), base_bytes);
    ExpectResultsMatch(base_.results, base_copy_.results, 0.0,
                       "base after " + spec);

    Failpoints::Clear();
    Failpoints::ClearParked();
    auto recovered = prepared_.Execute(DeltaRequest(base_));
    EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
    if (recovered.ok()) {
      EXPECT_EQ(recovered->stats.delta_passes, db_->catalog.num_relations());
      ExpectResultsMatch(recovered->results, oracle_.results, 0.0,
                         "recovery after " + spec);
    }
    return hits;
  }

  std::unique_ptr<ExactDatabase> db_;
  std::unique_ptr<Engine> engine_;
  PreparedBatch prepared_;
  BatchResult base_;
  BatchResult base_copy_;
  BatchResult oracle_;
};

TEST_F(DeltaFailpointTest, PassInjectionFailsCleanly) {
  EXPECT_EQ(CheckInjectionAndRecovery("engine.pass=fail"), 1u);
  // Mid-stream: the first pass succeeds and is folded, the second fails.
  EXPECT_EQ(CheckInjectionAndRecovery("engine.pass=fail#2"), 2u);
}

TEST_F(DeltaFailpointTest, DeadlineSpansAllDeltaPasses) {
  // Each delta pass is delayed 60 ms: no single pass exceeds the 100 ms
  // deadline, but the refresh as a whole does, and the deadline is the
  // call's.
  FailpointGuard guard;
  ASSERT_TRUE(Failpoints::Configure("engine.pass=delay:60").ok());
  ExecRequest request = DeltaRequest(base_);
  request.limits.deadline_seconds = 0.1;
  auto timed_out = prepared_.Execute(request);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded)
      << timed_out.status().ToString();

  // The trip ended with the call: the same handle refreshes again.
  Failpoints::Clear();
  Failpoints::ClearParked();
  request.limits.deadline_seconds = 300.0;
  auto again = prepared_.Execute(request);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ExpectResultsMatch(again->results, oracle_.results, 0.0,
                     "delta refresh after a deadline trip");
}

/// Runs under whatever LMFAO_FAILPOINTS the environment installed (the CI
/// failpoints job sweeps engine.pass specs through this test); with none
/// configured it is a plain smoke test. Nothing may crash or leak views,
/// and clearing the injection must restore exact answers.
TEST(DeltaSweepTest, AmbientInjectionNeverCrashesAndRecovers) {
  FailpointGuard guard;
  // Build the fixture with injection suspended so ambient catalog/view
  // specs cannot fail construction before any refresh runs.
  const std::string ambient = Failpoints::CurrentSpec();
  Failpoints::Clear();
  Failpoints::ClearParked();
  Rng rng(90210);
  ExactDatabase db = MakeExactDatabase(&rng);
  Engine engine(&db.catalog, &db.tree, EngineOptions{});
  auto prepared = engine.Prepare(MakeExactBatch(db, &rng));
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto base = prepared->Execute();
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_NO_FATAL_FAILURE(GrowEveryRelation(&db, &rng, 3));
  auto oracle = prepared->Execute();
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  if (!ambient.empty()) {
    ASSERT_TRUE(Failpoints::Configure(ambient).ok());
  }

  const size_t base_views = ViewStore::GlobalLiveViews();
  int failures = 0;
  for (int i = 0; i < 15; ++i) {
    auto result = prepared->Execute(DeltaRequest(*base));
    if (!result.ok()) {
      ++failures;
    } else {
      ExpectResultsMatch(result->results, oracle->results, 0.0,
                         "injected-but-ok refresh " + std::to_string(i));
    }
    EXPECT_EQ(ViewStore::GlobalLiveViews(), base_views) << "iteration " << i;
  }
  Failpoints::Clear();
  Failpoints::ClearParked();
  auto clean = prepared->Execute(DeltaRequest(*base));
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ExpectResultsMatch(clean->results, oracle->results, 0.0,
                     "clean refresh after ambient sweep (" +
                         std::to_string(failures) + "/15 runs failed)");
}

}  // namespace
}  // namespace lmfao
