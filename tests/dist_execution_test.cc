/// \file dist_execution_test.cc
/// \brief Sharded execution (ExecRequest::shards), pinned
/// differentially: for every shard count the folded result must be
/// bit-for-bit equal to the unsharded prepared Execute AND to the naive
/// scan baseline (the exact generator emits integer data, so per-key sums
/// are associative), across randomized databases and append schedules;
/// plus the shard split (balanced covering ranges of the largest relation
/// in the input closure, clamped shard counts), slices of the relation's
/// sorted order under several orders and across a cache that moves to
/// newer epochs mid-call, delta refreshes of a sharded base, requests
/// combining a pinned epoch with a delta base or a shard count, shard
/// observability, one deadline across all shard passes, and fault
/// injection through the dist.shard_execute seam with zero leaked views.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
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
#include "engine/report.h"
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
using ::lmfao::testing::ShardedRequest;

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

/// The differential shard-count matrix. The CI dist job widens it through
/// LMFAO_DIST_SHARDS (one extra count per matrix leg).
std::vector<int> ShardCounts() {
  std::vector<int> counts = {1, 2, 4, 8};
  if (const char* env = std::getenv("LMFAO_DIST_SHARDS")) {
    const int n = std::atoi(env);
    if (n > 0 && std::find(counts.begin(), counts.end(), n) == counts.end()) {
      counts.push_back(n);
    }
  }
  return counts;
}

class DistFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DistFuzzTest, ShardedMatchesExecuteAndBaselineBitForBit) {
  struct Config {
    bool freeze = true;
    int threads = 1;
  };
  // Frozen single-thread is the default path; the others make sure shard
  // passes compose with hash-form views and the hybrid scheduler.
  const std::vector<Config> configs = {{true, 1}, {false, 1}, {true, 3}};
  const std::vector<int> shard_counts = ShardCounts();
  for (size_t ci = 0; ci < configs.size(); ++ci) {
    Rng rng(GetParam() * 977 + ci);
    ExactDatabase db = MakeExactDatabase(&rng);
    const QueryBatch batch = MakeExactBatch(db, &rng);
    AppendSchedule schedule;
    LMFAO_REPRO_TRACE(GetParam() * 977 + ci);

    EngineOptions options;
    options.plan.freeze_views = configs[ci].freeze;
    options.scheduler.num_threads = configs[ci].threads;
    Engine engine(&db.catalog, &db.tree, options);
    auto prepared = engine.Prepare(batch);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

    auto check_all_counts = [&](const std::string& label) {
      // Oracle 1: the unsharded prepared execute at the same epoch.
      auto full = prepared->Execute();
      ASSERT_TRUE(full.ok()) << full.status().ToString();
      // Oracle 2: the naive scan baseline over the materialized join.
      auto joined = MaterializeJoin(db.catalog, db.tree, 0);
      ASSERT_TRUE(joined.ok()) << joined.status().ToString();
      auto baseline = EvaluateBatchSharedScan(*joined, batch);
      ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

      for (int n : shard_counts) {
        auto sharded = prepared->Execute(ShardedRequest(n));
        ASSERT_TRUE(sharded.ok())
            << label << " n=" << n << ": " << sharded.status().ToString();
        EXPECT_TRUE(sharded->stats.dist_execution);
        EXPECT_GE(sharded->stats.dist_shards, 1);
        EXPECT_LE(sharded->stats.dist_shards, n);
        ExpectResultsMatch(sharded->results, full->results, 0.0,
                           label + " n=" + std::to_string(n) +
                               ": sharded vs unsharded execute");
        ExpectResultsMatch(sharded->results, *baseline, 0.0,
                           label + " n=" + std::to_string(n) +
                               ": sharded vs scan baseline");
      }
    };
    ASSERT_NO_FATAL_FAILURE(check_all_counts("initial"));

    // A sharded result is a first-class base: its epoch/signature/
    // fingerprint identity lets a delta request refresh it incrementally.
    auto base = prepared->Execute(ShardedRequest(4));
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    for (int round = 0; round < 2; ++round) {
      ASSERT_NO_FATAL_FAILURE(AppendRandomRows(&db, &rng, &schedule));
      LMFAO_REPRO_TRACE(GetParam() * 977 + ci, schedule);

      auto refreshed = prepared->Execute(DeltaRequest(*base));
      ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
      auto full = prepared->Execute();
      ASSERT_TRUE(full.ok()) << full.status().ToString();
      ExpectResultsMatch(refreshed->results, full->results, 0.0,
                         "round " + std::to_string(round) +
                             ": delta refresh of a sharded base");
      // The refresh's stats describe the refresh, which ran no shards.
      EXPECT_TRUE(refreshed->stats.delta_execution);
      EXPECT_FALSE(refreshed->stats.dist_execution);
      EXPECT_EQ(ReportExecution(refreshed->stats, db.catalog).find("sharded:"),
                std::string::npos);

      // And sharded execution keeps matching after the appends.
      ASSERT_NO_FATAL_FAILURE(
          check_all_counts("round " + std::to_string(round)));
      base = std::move(refreshed);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistFuzzTest,
                         ::testing::Range<uint64_t>(1, 13));

// --- Shard split -----------------------------------------------------------

class ShardPlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(2718);
    db_ = std::make_unique<ExactDatabase>(MakeExactDatabase(&rng));
    engine_ = std::make_unique<Engine>(&db_->catalog, &db_->tree,
                                       EngineOptions{});
    auto prepared = engine_->Prepare(MakeExactBatch(*db_, &rng));
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    prepared_ = std::move(prepared).value();
  }

  /// Rows of the partitioned relation at the current epoch.
  size_t PartitionedRows(const ExecutionStats& stats) const {
    return db_->catalog.SnapshotEpoch().at(stats.dist_relation);
  }

  std::unique_ptr<ExactDatabase> db_;
  std::unique_ptr<Engine> engine_;
  PreparedBatch prepared_;
};

TEST_F(ShardPlanTest, BalancedRangesCoverTheRelation) {
  auto sharded = prepared_.Execute(ShardedRequest(4));
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  const ExecutionStats& stats = sharded->stats;
  ASSERT_NE(stats.dist_relation, kInvalidRelation);

  // The partitioned relation is the largest one some group reads.
  uint64_t closure = 0;
  for (const GroupPlan& plan : prepared_.compiled().plans) {
    closure |= plan.source_relation_mask;
  }
  ASSERT_TRUE((closure >> stats.dist_relation) & 1);
  const EpochSnapshot epoch = db_->catalog.SnapshotEpoch();
  for (RelationId r = 0; r < db_->catalog.num_relations(); ++r) {
    if (((closure >> r) & 1) == 0) continue;
    EXPECT_LE(epoch.at(r), epoch.at(stats.dist_relation))
        << db_->catalog.relation(r).name();
  }

  // Four shards whose rows cover the relation and differ by at most one.
  const size_t rows = PartitionedRows(stats);
  ASSERT_GE(rows, 4u);
  ASSERT_EQ(stats.dist_shards, 4);
  ASSERT_EQ(stats.dist_shard_stats.size(), 4u);
  size_t covered = 0;
  for (const DistShardStats& s : stats.dist_shard_stats) {
    EXPECT_GE(s.rows, rows / 4) << "shard " << s.shard;
    EXPECT_LE(s.rows, rows / 4 + 1) << "shard " << s.shard;
    covered += s.rows;
  }
  EXPECT_EQ(covered, rows);
}

TEST_F(ShardPlanTest, ShardCountClampsToRowCountAndNeverBelowOne) {
  // Far more shards than rows: one shard per row.
  auto many = prepared_.Execute(ShardedRequest(1 << 20));
  ASSERT_TRUE(many.ok()) << many.status().ToString();
  EXPECT_EQ(static_cast<size_t>(many->stats.dist_shards),
            PartitionedRows(many->stats));
  for (const DistShardStats& s : many->stats.dist_shard_stats) {
    EXPECT_EQ(s.rows, 1u);
  }

  // One shard: a single slice over the whole relation.
  auto one = prepared_.Execute(ShardedRequest(1));
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_EQ(one->stats.dist_shards, 1);
  ASSERT_EQ(one->stats.dist_shard_stats.size(), 1u);
  EXPECT_EQ(one->stats.dist_shard_stats[0].rows, PartitionedRows(one->stats));

  auto full = prepared_.Execute();
  ASSERT_TRUE(full.ok());
  ExpectResultsMatch(many->results, full->results, 0.0,
                     "one shard per row vs unsharded execute");

  // Zero or negative: unsharded, the plain execution.
  for (int n : {0, -3}) {
    auto plain = prepared_.Execute(ShardedRequest(n));
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    EXPECT_FALSE(plain->stats.dist_execution);
    EXPECT_EQ(plain->stats.dist_shards, 0);
    EXPECT_TRUE(plain->stats.dist_shard_stats.empty());
    ExpectResultsMatch(plain->results, full->results, 0.0,
                       "shards <= 0 vs unsharded execute");
  }
}

TEST_F(ShardPlanTest, EmptyBatchHasNothingToPartition) {
  // No group reads any relation, so none is linear in the batch: splitting
  // one would count the (empty) result once per shard.
  auto prepared = engine_->Prepare(QueryBatch{});
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto sharded = prepared->Execute(ShardedRequest(2));
  EXPECT_FALSE(sharded.ok());
  EXPECT_EQ(sharded.status().code(), StatusCode::kInvalidArgument);
}

// --- Slices of the sorted order ------------------------------------------

// A shard takes a range of positions in the partitioned relation's sorted
// order, and a group reading that relation under another attribute order
// slices that order instead, so two such groups see different row subsets
// in the same pass. Each query scans the relation once, so the shards still
// partition it per query. With multi-output grouping the largest relation's
// views are merged first and share one group; one group per view gives it
// several groups, and seed 13 makes their orders differ.
TEST(ShardSliceTest, ExactWhenThePartitionedRelationIsReadUnderTwoOrders) {
  Rng rng(13);
  ExactDatabase db = MakeExactDatabase(&rng);
  const QueryBatch batch = MakeExactBatch(db, &rng);
  EngineOptions options;
  options.grouping.multi_output = false;
  Engine engine(&db.catalog, &db.tree, options);
  auto prepared = engine.Prepare(batch);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  auto full = prepared->Execute();
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  auto joined = MaterializeJoin(db.catalog, db.tree, 0);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  auto baseline = EvaluateBatchSharedScan(*joined, batch);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  auto probe = prepared->Execute(ShardedRequest(2));
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  const RelationId relation = probe->stats.dist_relation;
  ASSERT_NE(relation, kInvalidRelation);
  // The premise: two or more groups at the partitioned relation, read
  // under at least two distinct attribute orders.
  int groups_at_relation = 0;
  std::vector<std::vector<AttrId>> orders;
  for (const GroupPlan& plan : prepared->compiled().plans) {
    if (plan.node != relation) continue;
    ++groups_at_relation;
    if (std::find(orders.begin(), orders.end(), plan.attr_order) ==
        orders.end()) {
      orders.push_back(plan.attr_order);
    }
  }
  ASSERT_GE(groups_at_relation, 2);
  ASSERT_GE(orders.size(), 2u);

  const size_t rows = db.catalog.SnapshotEpoch().at(relation);
  ASSERT_GT(rows, 8u);
  for (int n : {2, 3, 5, 8, static_cast<int>(rows)}) {
    auto sharded = prepared->Execute(ShardedRequest(n));
    ASSERT_TRUE(sharded.ok()) << "n=" << n << ": "
                              << sharded.status().ToString();
    EXPECT_EQ(sharded->stats.dist_relation, relation);
    EXPECT_EQ(sharded->stats.dist_shards, n);
    ExpectResultsMatch(sharded->results, full->results, 0.0,
                       "n=" + std::to_string(n) + ": sharded vs execute");
    ExpectResultsMatch(sharded->results, *baseline, 0.0,
                       "n=" + std::to_string(n) + ": sharded vs baseline");
  }

  // A delta refresh of a sharded base slices committed rows, not sorted
  // positions, and still lands on the full result.
  auto base = prepared->Execute(ShardedRequest(3));
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  std::vector<std::vector<Value>> appended;
  const Relation& rel = db.catalog.relation(relation);
  for (size_t i = 0; i < 4; ++i) {
    std::vector<Value> row;
    for (int c = 0; c < rel.num_columns(); ++c) row.push_back(rel.ValueAt(i, c));
    appended.push_back(std::move(row));
  }
  ASSERT_TRUE(db.catalog.AppendRows(relation, appended).ok());
  auto refreshed = prepared->Execute(DeltaRequest(*base));
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  auto after = prepared->Execute();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ExpectResultsMatch(refreshed->results, after->results, 0.0,
                     "delta refresh of a sharded base");
}

// The sorted snapshot a sharded call slices belongs to the call's epoch.
// While the call is held between shard passes, another thread appends and
// executes at two newer epochs, so the engine's sorted cache (two epochs
// per order) prunes the call's epoch; the later shards must still slice the
// call's own epoch.
TEST(ShardSliceTest, ShardedCallStaysAtItsEpochWhileTheCacheMovesOn) {
  FailpointGuard guard;
  Failpoints::Clear();
  Failpoints::ClearParked();
  Rng rng(4242);
  ExactDatabase db = MakeExactDatabase(&rng);
  const QueryBatch batch = MakeExactBatch(db, &rng);
  Engine engine(&db.catalog, &db.tree, EngineOptions{});
  auto prepared = engine.Prepare(batch);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_TRUE(Failpoints::Configure("dist.shard_execute=delay:40").ok());

  std::atomic<bool> call_done{false};
  std::vector<Status> mover_errors;
  std::thread mover([&] {
    // The second hit of the seam is the delay before shard 1: shard 0 has
    // run and read the call's epoch.
    while (Failpoints::Hits("dist.shard_execute") < 2 && !call_done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Rng mover_rng(99);
    for (int epoch = 0; epoch < 2; ++epoch) {
      for (RelationId r = 0; r < db.catalog.num_relations(); ++r) {
        const int arity = db.catalog.relation(r).num_columns();
        std::vector<std::vector<Value>> rows(3);
        for (std::vector<Value>& row : rows) {
          for (int c = 0; c < arity; ++c) {
            const int64_t v = mover_rng.UniformInt(-3, 3);
            row.push_back(db.catalog.relation(r).column(c).type() ==
                                  AttrType::kInt
                              ? Value::Int(v)
                              : Value::Double(static_cast<double>(v)));
          }
        }
        Status st = db.catalog.AppendRows(r, rows);
        if (!st.ok()) mover_errors.push_back(st);
      }
      auto newer = prepared->Execute();
      if (!newer.ok()) mover_errors.push_back(newer.status());
    }
  });
  auto sharded = prepared->Execute(ShardedRequest(4));
  call_done.store(true);
  mover.join();
  Failpoints::Clear();
  Failpoints::ClearParked();
  for (const Status& st : mover_errors) ADD_FAILURE() << st.ToString();
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  const RelationId relation = sharded->stats.dist_relation;
  ASSERT_NE(relation, kInvalidRelation);
  // The appends committed after the call took its epoch.
  EXPECT_LT(sharded->epoch.at(relation),
            db.catalog.SnapshotEpoch().at(relation));
  size_t covered = 0;
  for (const DistShardStats& s : sharded->stats.dist_shard_stats) {
    covered += s.rows;
  }
  EXPECT_EQ(covered, sharded->epoch.at(relation));

  auto at = prepared->ExecuteAt(sharded->epoch);
  ASSERT_TRUE(at.ok()) << at.status().ToString();
  ExpectResultsMatch(sharded->results, at->results, 0.0,
                     "sharded call vs ExecuteAt its own epoch");
}

// --- Request combinations ------------------------------------------------

// An ExecRequest may pin an epoch and add a delta base or a shard count;
// either way the result must equal the plain execution at that epoch.

/// Appends random rounds until the catalog's epoch moves.
void AppendUntilEpochMoves(ExactDatabase* db, Rng* rng,
                           AppendSchedule* schedule) {
  const EpochSnapshot before = db->catalog.SnapshotEpoch();
  while (db->catalog.SnapshotEpoch().rows == before.rows) {
    ASSERT_NO_FATAL_FAILURE(AppendRandomRows(db, rng, schedule));
  }
}

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

TEST(RequestShapeTest, ShardedAtAPinnedEpochEqualsExecuteAt) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 257);
    ExactDatabase db = MakeExactDatabase(&rng);
    const QueryBatch batch = MakeExactBatch(db, &rng);
    AppendSchedule schedule;
    Engine engine(&db.catalog, &db.tree, EngineOptions{});
    auto prepared = engine.Prepare(batch);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    ASSERT_NO_FATAL_FAILURE(AppendUntilEpochMoves(&db, &rng, &schedule));
    const EpochSnapshot pinned = db.catalog.SnapshotEpoch();
    auto at = prepared->ExecuteAt(pinned);
    ASSERT_TRUE(at.ok()) << at.status().ToString();
    // Later appends, and a newer execution that moves the sorted cache on.
    ASSERT_NO_FATAL_FAILURE(AppendUntilEpochMoves(&db, &rng, &schedule));
    ASSERT_TRUE(prepared->Execute().ok());
    LMFAO_REPRO_TRACE(seed * 257, schedule);

    for (int n : {1, 2, 3, 7}) {
      ExecRequest request = ShardedRequest(n);
      request.epoch = pinned;
      auto sharded = prepared->Execute(request);
      ASSERT_TRUE(sharded.ok())
          << "n=" << n << ": " << sharded.status().ToString();
      EXPECT_TRUE(sharded->stats.dist_execution);
      EXPECT_EQ(sharded->epoch.rows, pinned.rows);
      size_t covered = 0;
      for (const DistShardStats& s : sharded->stats.dist_shard_stats) {
        covered += s.rows;
      }
      EXPECT_EQ(covered, pinned.at(sharded->stats.dist_relation));
      ExpectResultsMatch(sharded->results, at->results, 0.0,
                         "n=" + std::to_string(n) +
                             ": sharded at a pinned epoch vs ExecuteAt it");
    }
  }
}

TEST(RequestShapeTest, DeltaBaseWithShardsIsInvalidArgument) {
  Rng rng(5);
  ExactDatabase db = MakeExactDatabase(&rng);
  Engine engine(&db.catalog, &db.tree, EngineOptions{});
  auto prepared = engine.Prepare(MakeExactBatch(db, &rng));
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto base = prepared->Execute();
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ExecRequest request = DeltaRequest(*base);
  request.shards = 2;
  auto both = prepared->Execute(request);
  ASSERT_FALSE(both.ok());
  EXPECT_EQ(both.status().code(), StatusCode::kInvalidArgument)
      << both.status().ToString();
}

// --- Observability -------------------------------------------------------

TEST(DistStatsTest, ShardCountersAreCoherent) {
  auto data = MakeFavorita(FavoritaOptions{.num_sales = 1500});
  ASSERT_TRUE(data.ok());
  Engine engine(&(*data)->catalog, &(*data)->tree, EngineOptions{});
  auto prepared = engine.Prepare(MakeExampleBatch(**data));
  ASSERT_TRUE(prepared.ok());

  auto sharded = prepared->Execute(ShardedRequest(4));
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  const ExecutionStats& stats = sharded->stats;
  EXPECT_TRUE(stats.dist_execution);
  EXPECT_EQ(stats.dist_shards, 4);
  ASSERT_NE(stats.dist_relation, kInvalidRelation);
  ASSERT_EQ(stats.dist_shard_stats.size(), 4u);

  const size_t sharded_rows =
      (*data)->catalog.SnapshotEpoch().at(stats.dist_relation);
  size_t rows = 0;
  for (const DistShardStats& s : stats.dist_shard_stats) {
    rows += s.rows;
    EXPECT_GE(s.seconds, 0.0);
  }
  EXPECT_EQ(rows, sharded_rows);
  EXPECT_GE(stats.merge_seconds, 0.0);
  EXPECT_GE(stats.shard_max_seconds, stats.shard_mean_seconds);

  // Favorita has non-integer doubles: sharded vs unsharded differ by
  // association order only.
  auto full = prepared->Execute();
  ASSERT_TRUE(full.ok());
  ExpectResultsMatch(sharded->results, full->results, 1e-9,
                     "favorita sharded execute");

  const std::string report = ReportExecution(stats, (*data)->catalog);
  EXPECT_NE(report.find("sharded: 4 shards"), std::string::npos) << report;
  EXPECT_NE(report.find("shard 0:"), std::string::npos) << report;
}

// --- Fault injection through the dist seam --------------------------------

class DistFailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Failpoints::Clear();
    Failpoints::ClearParked();
    Rng rng(31337);
    db_ = std::make_unique<ExactDatabase>(MakeExactDatabase(&rng));
    batch_ = MakeExactBatch(*db_, &rng);
    engine_ = std::make_unique<Engine>(&db_->catalog, &db_->tree,
                                       EngineOptions{});
    auto prepared = engine_->Prepare(batch_);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    prepared_ = std::move(prepared).value();
    auto oracle = prepared_.Execute();
    ASSERT_TRUE(oracle.ok());
    oracle_ = std::move(oracle).value();
  }

  /// Injects at `spec` (whose seam is `seam`), expects the sharded execute
  /// to fail without leaking views, then expects full recovery after Clear.
  void CheckInjectionAndRecovery(const std::string& spec,
                                 const char* seam) {
    FailpointGuard guard;
    const size_t base_views = ViewStore::GlobalLiveViews();
    const size_t base_bytes = ViewStore::GlobalLiveBytes();
    ASSERT_TRUE(Failpoints::Configure(spec).ok());

    auto failed = prepared_.Execute(ShardedRequest(4));
    EXPECT_FALSE(failed.ok()) << spec << " did not inject";
    EXPECT_NE(failed.status().code(), StatusCode::kOk);
    EXPECT_GT(Failpoints::Hits(seam), 0u);
    // The failed execution unwound completely: no shard pass or half-folded
    // result keeps views alive.
    EXPECT_EQ(ViewStore::GlobalLiveViews(), base_views);
    EXPECT_EQ(ViewStore::GlobalLiveBytes(), base_bytes);

    Failpoints::Clear();
    Failpoints::ClearParked();
    auto recovered = prepared_.Execute(ShardedRequest(4));
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    ExpectResultsMatch(recovered->results, oracle_.results, 0.0,
                       "recovery after " + spec);
  }

  std::unique_ptr<ExactDatabase> db_;
  QueryBatch batch_;
  std::unique_ptr<Engine> engine_;
  PreparedBatch prepared_;
  BatchResult oracle_;
};

TEST_F(DistFailpointTest, ShardExecuteInjectionFailsCleanly) {
  CheckInjectionAndRecovery("dist.shard_execute=fail", "dist.shard_execute");
  // Also mid-stream: the first shards succeed, the third fails.
  CheckInjectionAndRecovery("dist.shard_execute=fail#3",
                            "dist.shard_execute");
}

TEST_F(DistFailpointTest, DeadlineSpansAllShardPasses) {
  // Each shard pass is delayed 60 ms: no single pass exceeds the 100 ms
  // deadline, but the call as a whole does, and the deadline is the call's.
  FailpointGuard guard;
  ASSERT_TRUE(Failpoints::Configure("dist.shard_execute=delay:60").ok());
  ExecRequest request = ShardedRequest(4);
  request.limits.deadline_seconds = 0.1;
  auto timed_out = prepared_.Execute(request);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded)
      << timed_out.status().ToString();

  // The trip ended with the call: the same handle executes again.
  Failpoints::Clear();
  Failpoints::ClearParked();
  request.limits.deadline_seconds = 300.0;
  auto again = prepared_.Execute(request);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ExpectResultsMatch(again->results, oracle_.results, 0.0,
                     "sharded execute after a deadline trip");
}

/// Runs under whatever LMFAO_FAILPOINTS the environment installed (the CI
/// failpoints job sweeps dist.* specs through this test); with none
/// configured it is a plain smoke test. Nothing may crash or leak views,
/// and clearing the injection must restore exact answers.
TEST(DistSweepTest, AmbientInjectionNeverCrashesAndRecovers) {
  FailpointGuard guard;
  // Build the fixture with injection suspended so ambient catalog/view
  // specs cannot fail construction before any sharded execution runs.
  const std::string ambient = Failpoints::CurrentSpec();
  Failpoints::Clear();
  Failpoints::ClearParked();
  Rng rng(90210);
  ExactDatabase db = MakeExactDatabase(&rng);
  const QueryBatch batch = MakeExactBatch(db, &rng);
  Engine engine(&db.catalog, &db.tree, EngineOptions{});
  auto prepared = engine.Prepare(batch);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto oracle = prepared->Execute();
  ASSERT_TRUE(oracle.ok());
  if (!ambient.empty()) {
    ASSERT_TRUE(Failpoints::Configure(ambient).ok());
  }

  const size_t base_views = ViewStore::GlobalLiveViews();
  int failures = 0;
  for (int i = 0; i < 15; ++i) {
    auto result = prepared->Execute(ShardedRequest(1 + i % 4));
    if (!result.ok()) {
      ++failures;
    } else {
      ExpectResultsMatch(result->results, oracle->results, 0.0,
                         "injected-but-ok sharded run " + std::to_string(i));
    }
    EXPECT_EQ(ViewStore::GlobalLiveViews(), base_views) << "iteration " << i;
  }
  Failpoints::Clear();
  Failpoints::ClearParked();
  auto clean = prepared->Execute(ShardedRequest(4));
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ExpectResultsMatch(clean->results, oracle->results, 0.0,
                     "clean sharded execute after ambient sweep (" +
                         std::to_string(failures) + "/15 runs failed)");
}

}  // namespace
}  // namespace lmfao
