/// \file executor_test.cc
/// \brief Focused executor tests on hand-built micro-databases (edge cases
/// that the e2e tests cover only statistically).

#include "engine/executor.h"

#include <gtest/gtest.h>

#include "engine/attribute_order.h"
#include "engine/engine.h"
#include "engine/grouping.h"
#include "engine/view_generation.h"

namespace lmfao {
namespace {

/// Two-relation database R(a,b,x) -- S(b,y) with controllable rows.
struct Micro {
  Catalog catalog;
  JoinTree tree;
  AttrId a, b, x, y;
  RelationId r, s;
};

Micro MakeMicro() {
  Micro m;
  m.a = m.catalog.AddAttribute("a", AttrType::kInt).value();
  m.b = m.catalog.AddAttribute("b", AttrType::kInt).value();
  m.x = m.catalog.AddAttribute("x", AttrType::kDouble).value();
  m.y = m.catalog.AddAttribute("y", AttrType::kDouble).value();
  m.r = m.catalog.AddRelation("R", {"a", "b", "x"}).value();
  m.s = m.catalog.AddRelation("S", {"b", "y"}).value();
  return m;
}

void Finish(Micro* m) {
  m->catalog.RefreshDomainSizes();
  m->tree = JoinTree::FromEdges(m->catalog, {{m->r, m->s}}).value();
}

StatusOr<BatchResult> RunBatch(Micro* m, QueryBatch batch) {
  Engine engine(&m->catalog, &m->tree, EngineOptions{});
  return engine.Evaluate(batch);
}

TEST(ExecutorMicroTest, SimpleJoinCount) {
  Micro m = MakeMicro();
  auto& r = m.catalog.mutable_relation(m.r);
  auto& s = m.catalog.mutable_relation(m.s);
  // R: (1,1,·) (1,2,·) (2,1,·); S: b=1 twice, b=2 once.
  r.AppendRowUnchecked({Value::Int(1), Value::Int(1), Value::Double(1)});
  r.AppendRowUnchecked({Value::Int(1), Value::Int(2), Value::Double(1)});
  r.AppendRowUnchecked({Value::Int(2), Value::Int(1), Value::Double(1)});
  s.AppendRowUnchecked({Value::Int(1), Value::Double(5)});
  s.AppendRowUnchecked({Value::Int(1), Value::Double(7)});
  s.AppendRowUnchecked({Value::Int(2), Value::Double(9)});
  Finish(&m);
  QueryBatch batch;
  Query q;
  q.aggregates.push_back(Aggregate::Count());
  batch.Add(std::move(q));
  auto result = RunBatch(&m, batch);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Join size: rows with b=1 join 2 S-rows (2 R-rows) + b=2 joins 1: 2*2+1=5.
  EXPECT_DOUBLE_EQ(result->results[0].data.Lookup(TupleKey())[0], 5.0);
}

TEST(ExecutorMicroTest, EmptyJoinYieldsZero) {
  Micro m = MakeMicro();
  auto& r = m.catalog.mutable_relation(m.r);
  auto& s = m.catalog.mutable_relation(m.s);
  r.AppendRowUnchecked({Value::Int(1), Value::Int(1), Value::Double(1)});
  s.AppendRowUnchecked({Value::Int(2), Value::Double(5)});  // No match.
  Finish(&m);
  QueryBatch batch;
  Query q;
  q.aggregates.push_back(Aggregate::Count());
  batch.Add(std::move(q));
  auto result = RunBatch(&m, batch);
  ASSERT_TRUE(result.ok());
  const double* p = result->results[0].data.Lookup(TupleKey());
  // Either no entry or a zero-valued one.
  EXPECT_TRUE(p == nullptr || p[0] == 0.0);
}

TEST(ExecutorMicroTest, EmptyRelation) {
  Micro m = MakeMicro();
  m.catalog.mutable_relation(m.s).AppendRowUnchecked(
      {Value::Int(1), Value::Double(5)});
  Finish(&m);
  QueryBatch batch;
  Query q;
  q.aggregates.push_back(Aggregate::Count());
  batch.Add(std::move(q));
  auto result = RunBatch(&m, batch);
  ASSERT_TRUE(result.ok());
  const double* p = result->results[0].data.Lookup(TupleKey());
  EXPECT_TRUE(p == nullptr || p[0] == 0.0);
}

TEST(ExecutorMicroTest, ProductAcrossRelations) {
  Micro m = MakeMicro();
  auto& r = m.catalog.mutable_relation(m.r);
  auto& s = m.catalog.mutable_relation(m.s);
  r.AppendRowUnchecked({Value::Int(1), Value::Int(1), Value::Double(3)});
  s.AppendRowUnchecked({Value::Int(1), Value::Double(5)});
  s.AppendRowUnchecked({Value::Int(1), Value::Double(7)});
  Finish(&m);
  QueryBatch batch;
  Query q;
  q.aggregates.push_back(Aggregate::SumProduct(m.x, m.y));
  batch.Add(std::move(q));
  auto result = RunBatch(&m, batch);
  ASSERT_TRUE(result.ok());
  // 3*5 + 3*7 = 36.
  EXPECT_DOUBLE_EQ(result->results[0].data.Lookup(TupleKey())[0], 36.0);
}

TEST(ExecutorMicroTest, GroupByWithDuplicateRelationRows) {
  Micro m = MakeMicro();
  auto& r = m.catalog.mutable_relation(m.r);
  auto& s = m.catalog.mutable_relation(m.s);
  // Duplicate (a,b) pairs exercise bag semantics via leaf counts.
  r.AppendRowUnchecked({Value::Int(1), Value::Int(1), Value::Double(2)});
  r.AppendRowUnchecked({Value::Int(1), Value::Int(1), Value::Double(4)});
  s.AppendRowUnchecked({Value::Int(1), Value::Double(10)});
  Finish(&m);
  QueryBatch batch;
  Query q;
  q.group_by = {m.a};
  q.aggregates.push_back(Aggregate::Count());
  q.aggregates.push_back(Aggregate::Sum(m.x));
  batch.Add(std::move(q));
  auto result = RunBatch(&m, batch);
  ASSERT_TRUE(result.ok());
  const double* p = result->results[0].data.Lookup(TupleKey({1}));
  ASSERT_NE(p, nullptr);
  EXPECT_DOUBLE_EQ(p[0], 2.0);
  EXPECT_DOUBLE_EQ(p[1], 6.0);
}

TEST(ExecutorMicroTest, GroupByAttributeOfNonRootRelation) {
  Micro m = MakeMicro();
  auto& r = m.catalog.mutable_relation(m.r);
  auto& s = m.catalog.mutable_relation(m.s);
  r.AppendRowUnchecked({Value::Int(1), Value::Int(1), Value::Double(2)});
  r.AppendRowUnchecked({Value::Int(2), Value::Int(2), Value::Double(3)});
  r.AppendRowUnchecked({Value::Int(3), Value::Int(1), Value::Double(4)});
  s.AppendRowUnchecked({Value::Int(1), Value::Double(1)});
  s.AppendRowUnchecked({Value::Int(2), Value::Double(1)});
  Finish(&m);
  // Group by a (in R) but force root S: "a" travels through V_{R->S}.
  QueryBatch batch;
  Query q;
  q.group_by = {m.a};
  q.aggregates.push_back(Aggregate::Sum(m.x));
  q.root_hint = m.s;
  batch.Add(std::move(q));
  auto result = RunBatch(&m, batch);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_DOUBLE_EQ(result->results[0].data.Lookup(TupleKey({1}))[0], 2.0);
  EXPECT_DOUBLE_EQ(result->results[0].data.Lookup(TupleKey({2}))[0], 3.0);
  EXPECT_DOUBLE_EQ(result->results[0].data.Lookup(TupleKey({3}))[0], 4.0);
}

TEST(ExecutorMicroTest, ShardsPartitionTopLevel) {
  Micro m = MakeMicro();
  auto& r = m.catalog.mutable_relation(m.r);
  auto& s = m.catalog.mutable_relation(m.s);
  for (int64_t i = 0; i < 50; ++i) {
    r.AppendRowUnchecked(
        {Value::Int(i % 7), Value::Int(i % 3), Value::Double(1.0)});
  }
  for (int64_t b = 0; b < 3; ++b) {
    s.AppendRowUnchecked({Value::Int(b), Value::Double(1.0)});
  }
  Finish(&m);
  QueryBatch batch;
  Query q;
  q.group_by = {m.a};
  q.aggregates.push_back(Aggregate::Count());
  batch.Add(std::move(q));

  // Sequential reference.
  Engine seq(&m.catalog, &m.tree, EngineOptions{});
  auto ref = seq.Evaluate(batch);
  ASSERT_TRUE(ref.ok());
  // Hybrid run, sharding forced on the tiny relation.
  EngineOptions par;
  par.scheduler.num_threads = 3;
  par.scheduler.min_shard_rows = 1;
  Engine hybrid(&m.catalog, &m.tree, par);
  auto got = hybrid.Evaluate(batch);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(ref->results[0].data.size(), got->results[0].data.size());
  ref->results[0].data.ForEach([&](const TupleKey& k, const double* p) {
    const double* q2 = got->results[0].data.Lookup(k);
    ASSERT_NE(q2, nullptr);
    EXPECT_DOUBLE_EQ(p[0], q2[0]);
  });
}

TEST(ConsumedViewTest, PermutesAndSorts) {
  ViewMap produced(2, 1);
  // Canonical key (attr3, attr9) -> trie order wants component 1 first.
  produced.Upsert(TupleKey({1, 20}))[0] = 1.0;
  produced.Upsert(TupleKey({2, 10}))[0] = 2.0;
  GroupPlan::IncomingView incoming;
  incoming.key_perm = {1};        // Relation comp: canonical position 1.
  incoming.key_levels = {1};
  incoming.extra_perm = {0};      // Extra comp: canonical position 0.
  incoming.bound_level = 1;
  incoming.width = 1;
  ConsumedView cv = BuildConsumedView(produced, incoming);
  ASSERT_EQ(cv.size, 2u);
  ASSERT_EQ(cv.arity, 2);
  // Consumed component 0 is canonical component 1 (the relation attribute),
  // sorted ascending; component 1 carries the extras. Each is one
  // contiguous column.
  EXPECT_EQ(cv.col(0)[0], 10);
  EXPECT_EQ(cv.col(0)[1], 20);
  EXPECT_EQ(cv.col(1)[0], 2);
  EXPECT_EQ(cv.col(1)[1], 1);
  // Payloads are columnar: slot 0 is one contiguous column over entries.
  EXPECT_DOUBLE_EQ(cv.pcol(0)[0], 2.0);
  EXPECT_DOUBLE_EQ(cv.pcol(0)[1], 1.0);
  EXPECT_DOUBLE_EQ(cv.payload_at(0, 0), 2.0);
}

}  // namespace
}  // namespace lmfao
