/// \file exact_generator.h
/// \brief Shared randomized *integer-exact* workload generator for the
/// differential suite (delta_execution_test).
///
/// Emits random acyclic databases whose every column (double columns
/// included) holds small integers, so all aggregate sums are exact in
/// double precision and bit-for-bit (rel_tol = 0.0) comparisons are
/// meaningful across summation orders — full recompute vs base+delta vs
/// the scan baseline.

#ifndef LMFAO_TESTS_EXACT_GENERATOR_H_
#define LMFAO_TESTS_EXACT_GENERATOR_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "differential_harness.h"
#include "jointree/join_tree.h"
#include "query/query.h"
#include "storage/catalog.h"
#include "util/random.h"

namespace lmfao {
namespace testing {

/// A random acyclic database with *integer-exact* values: every column
/// (including double columns) holds small integers, so all aggregate sums
/// are exact in double precision and "bit-for-bit" comparisons are
/// meaningful across summation orders.
struct ExactDatabase {
  Catalog catalog;
  JoinTree tree;
  std::vector<AttrId> int_attrs;
  std::vector<AttrId> double_attrs;
};

inline ExactDatabase MakeExactDatabase(Rng* rng) {
  ExactDatabase db;
  const int num_relations = static_cast<int>(rng->UniformInt(3, 4));
  std::vector<std::pair<RelationId, RelationId>> edges;
  std::vector<std::vector<std::string>> rel_attrs(
      static_cast<size_t>(num_relations));
  int attr_counter = 0;
  auto new_int_attr = [&]() {
    const std::string name = "i" + std::to_string(attr_counter++);
    db.int_attrs.push_back(db.catalog.AddAttribute(name, AttrType::kInt)
                               .value());
    return name;
  };
  auto new_double_attr = [&]() {
    const std::string name = "d" + std::to_string(attr_counter++);
    db.double_attrs.push_back(
        db.catalog.AddAttribute(name, AttrType::kDouble).value());
    return name;
  };
  for (int r = 0; r < num_relations; ++r) {
    if (r > 0) {
      const int parent = static_cast<int>(rng->UniformInt(0, r - 1));
      edges.emplace_back(parent, r);
      const int sep = static_cast<int>(rng->UniformInt(1, 2));
      for (int s = 0; s < sep; ++s) {
        const std::string name = new_int_attr();
        rel_attrs[static_cast<size_t>(parent)].push_back(name);
        rel_attrs[static_cast<size_t>(r)].push_back(name);
      }
    }
    const int private_ints = static_cast<int>(rng->UniformInt(0, 2));
    for (int i = 0; i < private_ints; ++i) {
      rel_attrs[static_cast<size_t>(r)].push_back(new_int_attr());
    }
    const int doubles = static_cast<int>(rng->UniformInt(0, 1));
    for (int i = 0; i < doubles; ++i) {
      rel_attrs[static_cast<size_t>(r)].push_back(new_double_attr());
    }
  }
  for (int r = 0; r < num_relations; ++r) {
    if (rel_attrs[static_cast<size_t>(r)].empty()) {
      rel_attrs[static_cast<size_t>(r)].push_back(new_int_attr());
    }
    LMFAO_CHECK(db.catalog
                    .AddRelation("R" + std::to_string(r),
                                 rel_attrs[static_cast<size_t>(r)])
                    .ok());
  }
  for (RelationId r = 0; r < num_relations; ++r) {
    Relation& rel = db.catalog.mutable_relation(r);
    const int rows = static_cast<int>(rng->UniformInt(5, 50));
    for (int i = 0; i < rows; ++i) {
      std::vector<Value> row;
      for (int c = 0; c < rel.schema().arity(); ++c) {
        // Keys include negatives; small domains force duplicates.
        const int64_t v = rng->UniformInt(-3, 3);
        if (rel.column(c).type() == AttrType::kInt) {
          row.push_back(Value::Int(v));
        } else {
          row.push_back(Value::Double(static_cast<double>(v)));
        }
      }
      rel.AppendRowUnchecked(row);
    }
  }
  db.catalog.RefreshDomainSizes();
  db.tree = JoinTree::FromEdges(db.catalog, edges).value();
  return db;
}

/// A random batch whose every factor is integer-exact (identity, square,
/// indicators with integer thresholds, integer-valued dictionaries).
inline QueryBatch MakeExactBatch(const ExactDatabase& db, Rng* rng) {
  auto dict = std::make_shared<FunctionDict>();
  dict->name = "exact";
  dict->default_value = 1.0;
  for (int64_t k = -3; k <= 3; ++k) {
    dict->table[k] = static_cast<double>(rng->UniformInt(-2, 2));
  }
  QueryBatch batch;
  const int num_queries = static_cast<int>(rng->UniformInt(1, 4));
  for (int qi = 0; qi < num_queries; ++qi) {
    Query q;
    q.name = "q" + std::to_string(qi);
    const int group_arity = static_cast<int>(rng->UniformInt(0, 3));
    for (int g = 0; g < group_arity; ++g) {
      q.group_by.push_back(db.int_attrs[rng->Uniform(db.int_attrs.size())]);
    }
    const int num_aggs = static_cast<int>(rng->UniformInt(1, 3));
    for (int a = 0; a < num_aggs; ++a) {
      std::vector<Factor> factors;
      const int num_factors = static_cast<int>(rng->UniformInt(0, 2));
      for (int f = 0; f < num_factors; ++f) {
        const bool use_double =
            !db.double_attrs.empty() && rng->Bernoulli(0.5);
        const AttrId attr =
            use_double ? db.double_attrs[rng->Uniform(db.double_attrs.size())]
                       : db.int_attrs[rng->Uniform(db.int_attrs.size())];
        switch (rng->UniformInt(0, 3)) {
          case 0:
            factors.push_back(Factor{attr, Function::Identity()});
            break;
          case 1:
            factors.push_back(Factor{attr, Function::Square()});
            break;
          case 2:
            factors.push_back(Factor{
                attr, Function::Indicator(FunctionKind::kIndicatorLe,
                                          static_cast<double>(
                                              rng->UniformInt(-2, 2)))});
            break;
          default:
            factors.push_back(
                Factor{db.int_attrs[rng->Uniform(db.int_attrs.size())],
                       Function::Dictionary(dict)});
            break;
        }
      }
      q.aggregates.push_back(Aggregate(std::move(factors)));
    }
    batch.Add(std::move(q));
  }
  return batch;
}

/// One random append round: grows 0-2 relations by 0-5 rows each (empty
/// appends, single rows, duplicate and negative keys all occur), recording
/// the schedule for the failure reproducer.
inline void AppendRandomRows(ExactDatabase* db, Rng* rng,
                             AppendSchedule* schedule) {
  const int touched = static_cast<int>(rng->UniformInt(0, 2));
  for (int t = 0; t < touched; ++t) {
    const RelationId r = static_cast<RelationId>(
        rng->UniformInt(0, db->catalog.num_relations() - 1));
    const Relation& rel = db->catalog.relation(r);
    const int rows = static_cast<int>(rng->UniformInt(0, 5));
    std::vector<std::vector<Value>> batch_rows;
    for (int i = 0; i < rows; ++i) {
      std::vector<Value> row;
      if (rel.num_rows() > 0 && rng->Bernoulli(0.25)) {
        // Exact duplicate of an existing row.
        const size_t src = rng->Uniform(rel.num_rows());
        for (int c = 0; c < rel.num_columns(); ++c) {
          row.push_back(rel.ValueAt(src, c));
        }
      } else {
        for (int c = 0; c < rel.num_columns(); ++c) {
          const int64_t v = rng->UniformInt(-3, 3);
          row.push_back(rel.column(c).type() == AttrType::kInt
                            ? Value::Int(v)
                            : Value::Double(static_cast<double>(v)));
      }
      }
      batch_rows.push_back(std::move(row));
    }
    ASSERT_TRUE(db->catalog.AppendRows(r, batch_rows).ok());
    schedule->Record(rel.name(), static_cast<size_t>(rows));
  }
}

}  // namespace testing
}  // namespace lmfao

#endif  // LMFAO_TESTS_EXACT_GENERATOR_H_
