/// \file cart_test.cc
/// \brief CART over aggregate batches: batch structure, trainer correctness,
/// and parity between the LMFAO and scan backends.

#include "ml/cart.h"

#include <cmath>
#include <functional>
#include <limits>

#include <gtest/gtest.h>

#include "baseline/join.h"
#include "data/favorita.h"
#include "data/retailer.h"

namespace lmfao {
namespace {

/// Forwards to another provider and counts the node batches it evaluates.
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

int InternalNodes(const CartNode* node) {
  if (node->is_leaf) return 0;
  return 1 + InternalNodes(node->left.get()) + InternalNodes(node->right.get());
}

class CartTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto data = MakeFavorita(FavoritaOptions{.num_sales = 2000});
    ASSERT_TRUE(data.ok());
    data_ = std::move(data).value();
    features_.label = data_->units;
    features_.continuous = {data_->price, data_->txns};
    features_.categorical = {data_->promo, data_->stype};
    auto joined = MaterializeJoin(data_->catalog, data_->tree, data_->sales);
    ASSERT_TRUE(joined.ok());
    joined_ = std::make_unique<Relation>(std::move(joined).value());
  }

  std::unique_ptr<FavoritaData> data_;
  std::unique_ptr<Relation> joined_;
  FeatureSet features_;
};

TEST_F(CartTest, NodeBatchStructure) {
  CartOptions options;
  options.num_thresholds = 8;
  CartTrainer trainer(features_, &data_->catalog, options);
  const CartNodeBatch node = trainer.BuildNodeBatch({});
  const QueryBatch& batch = node.batch;
  // 1 total + 2 continuous features x 8 thresholds + |promo| + |stype|
  // candidate queries, 3 aggregates each.
  EXPECT_EQ(batch.TotalAggregates(), trainer.NodeAggregateCount());
  EXPECT_EQ(batch.TotalAggregates(), batch.size() * 3);
  for (const Query& q : batch.queries()) {
    EXPECT_TRUE(q.group_by.empty());
    ASSERT_EQ(q.aggregates.size(), 3u);
  }
  // Every candidate threshold is a parameter slot with a binding: the
  // batch after the node-total query references one slot per candidate.
  const std::vector<ParamId> required = batch.RequiredParams();
  EXPECT_EQ(required.size(), static_cast<size_t>(batch.size()) - 1);
  for (ParamId p : required) EXPECT_TRUE(node.params.Has(p));
}

TEST_F(CartTest, NodeBatchesShareStructureAcrossThresholds) {
  // Two nodes whose paths differ only in threshold values produce
  // structurally identical batches — the engine compiles the shape once.
  CartOptions options;
  options.num_thresholds = 4;
  CartTrainer trainer(features_, &data_->catalog, options);
  const CartNodeBatch a = trainer.BuildNodeBatch(
      {{data_->price, FunctionKind::kIndicatorLe, 10.0}});
  const CartNodeBatch b = trainer.BuildNodeBatch(
      {{data_->price, FunctionKind::kIndicatorLe, 77.0}});
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  auto pa = engine.Prepare(a.batch);
  auto pb = engine.Prepare(b.batch);
  ASSERT_TRUE(pa.ok());
  ASSERT_TRUE(pb.ok());
  EXPECT_EQ(pa->signature(), pb->signature());
  EXPECT_FALSE(pa->from_cache());
  EXPECT_TRUE(pb->from_cache());
  // A different op sequence (the complement side) is a different shape.
  const CartNodeBatch c = trainer.BuildNodeBatch(
      {{data_->price, FunctionKind::kIndicatorGt, 10.0}});
  auto pc = engine.Prepare(c.batch);
  ASSERT_TRUE(pc.ok());
  EXPECT_NE(pc->signature(), pa->signature());
}

TEST_F(CartTest, PathConditionsAppearInEveryAggregate) {
  CartTrainer trainer(features_, &data_->catalog, CartOptions{});
  std::vector<CartCondition> path = {
      {data_->price, FunctionKind::kIndicatorLe, 50.0}};
  const CartNodeBatch node = trainer.BuildNodeBatch(path);
  for (const Query& q : node.batch.queries()) {
    for (const Aggregate& agg : q.aggregates) {
      bool has_path_condition = false;
      for (const Factor& f : agg.factors()) {
        has_path_condition |=
            f.attr == data_->price && f.fn.IsIndicator() &&
            f.fn.IsParameterized() &&
            node.params.Get(f.fn.param()) == 50.0;
      }
      EXPECT_TRUE(has_path_condition);
    }
  }
}

TEST_F(CartTest, LmfaoAndScanBackendsGrowTheSameTree) {
  CartOptions options;
  options.max_depth = 3;
  options.num_thresholds = 6;
  CartTrainer trainer(features_, &data_->catalog, options);

  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  LmfaoCartProvider lmfao_provider(&engine);
  auto lmfao_tree = trainer.Train(&lmfao_provider);
  ASSERT_TRUE(lmfao_tree.ok()) << lmfao_tree.status().ToString();

  ScanCartProvider scan_provider(joined_.get());
  auto scan_tree = trainer.Train(&scan_provider);
  ASSERT_TRUE(scan_tree.ok());

  // The two backends see bit-different floating-point sums (factorized vs
  // sequential accumulation), which can flip exact gain ties; compare the
  // trees by training quality rather than shape.
  EXPECT_EQ(lmfao_tree->num_nodes, scan_tree->num_nodes);
  const int label_col = joined_->ColumnIndex(features_.label);
  auto sse = [&](const DecisionTree& tree) {
    double out = 0.0;
    for (size_t row = 0; row < joined_->num_rows(); ++row) {
      const double y = joined_->column(label_col).AsDouble(row);
      const double d = y - tree.Predict(*joined_, row);
      out += d * d;
    }
    return out;
  };
  const double lmfao_sse = sse(*lmfao_tree);
  const double scan_sse = sse(*scan_tree);
  EXPECT_NEAR(lmfao_sse, scan_sse, 1e-6 * std::max(1.0, scan_sse));
}

TEST_F(CartTest, LmfaoBackendTracksAppendsWithoutRebuild) {
  CartOptions options;
  options.max_depth = 2;
  options.num_thresholds = 4;
  CartTrainer trainer(features_, &data_->catalog, options);
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  LmfaoCartProvider provider(&engine);
  ASSERT_TRUE(trainer.Train(&provider).ok());

  // Grow Sales through the epoch append API; the SAME engine and provider
  // retrain on the larger database (appends invalidate nothing) and must
  // agree with the scan backend over the re-materialized join.
  std::vector<std::vector<Value>> rows;
  for (int64_t i = 0; i < 400; ++i) {
    rows.push_back({Value::Int((i * 3) % 90), Value::Int(i % 18),
                    Value::Int((i * 11) % 400),
                    Value::Double(1.0 + static_cast<double>(i % 9)),
                    Value::Int(i % 2)});
  }
  ASSERT_TRUE(data_->catalog.AppendRows(data_->sales, rows).ok());

  auto lmfao_tree = trainer.Train(&provider);
  ASSERT_TRUE(lmfao_tree.ok()) << lmfao_tree.status().ToString();

  auto joined = MaterializeJoin(data_->catalog, data_->tree, data_->sales);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->num_rows(), 2400u);
  ScanCartProvider scan_provider(&*joined);
  auto scan_tree = trainer.Train(&scan_provider);
  ASSERT_TRUE(scan_tree.ok());

  EXPECT_EQ(lmfao_tree->num_nodes, scan_tree->num_nodes);
  const int label_col = joined->ColumnIndex(features_.label);
  auto sse = [&](const DecisionTree& tree) {
    double out = 0.0;
    for (size_t row = 0; row < joined->num_rows(); ++row) {
      const double y = joined->column(label_col).AsDouble(row);
      const double d = y - tree.Predict(*joined, row);
      out += d * d;
    }
    return out;
  };
  const double lmfao_sse = sse(*lmfao_tree);
  const double scan_sse = sse(*scan_tree);
  EXPECT_NEAR(lmfao_sse, scan_sse, 1e-6 * std::max(1.0, scan_sse));
}

TEST_F(CartTest, TreeReducesTrainingError) {
  CartOptions options;
  options.max_depth = 4;
  CartTrainer trainer(features_, &data_->catalog, options);
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  LmfaoCartProvider provider(&engine);
  auto tree = trainer.Train(&provider);
  ASSERT_TRUE(tree.ok());
  ASSERT_GT(tree->num_nodes, 1);

  // Mean-squared error of tree vs. the constant-mean predictor.
  const int label_col = joined_->ColumnIndex(features_.label);
  double mean = 0.0;
  for (size_t r = 0; r < joined_->num_rows(); ++r) {
    mean += joined_->column(label_col).AsDouble(r);
  }
  mean /= static_cast<double>(joined_->num_rows());
  double tree_sse = 0.0;
  double mean_sse = 0.0;
  for (size_t r = 0; r < joined_->num_rows(); ++r) {
    const double y = joined_->column(label_col).AsDouble(r);
    const double pred = tree->Predict(*joined_, r);
    tree_sse += (y - pred) * (y - pred);
    mean_sse += (y - mean) * (y - mean);
  }
  EXPECT_LT(tree_sse, mean_sse);
}

TEST_F(CartTest, RespectsDepthAndLeafLimits) {
  CartOptions options;
  options.max_depth = 1;
  CartTrainer trainer(features_, &data_->catalog, options);
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  LmfaoCartProvider provider(&engine);
  auto tree = trainer.Train(&provider);
  ASSERT_TRUE(tree.ok());
  EXPECT_LE(tree->depth, 1);
  EXPECT_LE(tree->num_nodes, 3);

  options.max_depth = 5;
  options.min_leaf_count = 1e9;  // Impossible: stays a single leaf.
  CartTrainer stump(features_, &data_->catalog, options);
  auto leaf = stump.Train(&provider);
  ASSERT_TRUE(leaf.ok());
  EXPECT_EQ(leaf->num_nodes, 1);
  EXPECT_TRUE(leaf->root->is_leaf);
  EXPECT_NEAR(leaf->root->count, 2000.0, 1e-9);
}

TEST_F(CartTest, LeafStatisticsConsistent) {
  CartOptions options;
  options.max_depth = 2;
  CartTrainer trainer(features_, &data_->catalog, options);
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  LmfaoCartProvider provider(&engine);
  auto tree = trainer.Train(&provider);
  ASSERT_TRUE(tree.ok());
  // Children counts and label sums add up to the parent's.
  auto sum = [](const CartNode* node) {
    return node->prediction * node->count;
  };
  std::function<void(const CartNode*)> check = [&](const CartNode* node) {
    if (node->is_leaf) return;
    EXPECT_NEAR(node->left->count + node->right->count, node->count, 1e-6);
    EXPECT_NEAR(sum(node->left.get()) + sum(node->right.get()), sum(node),
                1e-9 * std::max(1.0, std::abs(sum(node))));
    check(node->left.get());
    check(node->right.get());
  };
  check(tree->root.get());
}

TEST_F(CartTest, EveryNodeMatchesADirectFilterOfItsPath) {
  // Child totals and right-sibling moments are derived by subtraction;
  // each node's count and mean must still equal those of the joined rows
  // its root-to-node path selects, on both sides and at every depth.
  CartOptions options;
  options.max_depth = 3;
  CartTrainer trainer(features_, &data_->catalog, options);
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  LmfaoCartProvider provider(&engine);
  auto tree = trainer.Train(&provider);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  ASSERT_EQ(tree->depth, 3);

  const int label_col = joined_->ColumnIndex(features_.label);
  int checked = 0;
  std::function<void(const CartNode*, std::vector<CartCondition>)> check =
      [&](const CartNode* node, std::vector<CartCondition> path) {
        double count = 0.0;
        double sum = 0.0;
        for (size_t row = 0; row < joined_->num_rows(); ++row) {
          bool selected = true;
          for (const CartCondition& c : path) {
            const double x =
                joined_->column(joined_->ColumnIndex(c.attr)).AsDouble(row);
            selected &= c.ToFactor().fn.Eval(x) > 0.5;
          }
          if (!selected) continue;
          count += 1.0;
          sum += joined_->column(label_col).AsDouble(row);
        }
        ASSERT_GT(count, 0.0);
        EXPECT_NEAR(node->count, count, 1e-9 * count);
        const double mean = sum / count;
        EXPECT_NEAR(node->prediction, mean,
                    1e-9 * std::max(1.0, std::abs(mean)));
        ++checked;
        if (node->is_leaf) return;
        path.push_back(node->split);
        check(node->left.get(), path);
        path.back().op = node->split.op == FunctionKind::kIndicatorLe
                             ? FunctionKind::kIndicatorGt
                             : FunctionKind::kIndicatorNe;
        check(node->right.get(), path);
      };
  check(tree->root.get(), {});
  EXPECT_EQ(checked, tree->num_nodes);
}

TEST_F(CartTest, LeavesAndRightChildrenRunNoNodeBatch) {
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  LmfaoCartProvider lmfao_provider(&engine);
  auto train = [&](int max_depth, int* calls) {
    CartOptions options;
    options.max_depth = max_depth;
    CartTrainer trainer(features_, &data_->catalog, options);
    CountingProvider counting(&lmfao_provider);
    auto tree = trainer.Train(&counting);
    EXPECT_TRUE(tree.ok()) << tree.status().ToString();
    *calls = counting.calls;
    return tree;
  };

  // A stump: both children sit at max_depth, so only the root evaluates.
  int calls = 0;
  auto stump = train(1, &calls);
  ASSERT_TRUE(stump.ok());
  ASSERT_EQ(stump->num_nodes, 3);
  EXPECT_EQ(calls, 1);

  // A full depth-2 tree: the root and its left child evaluate; the right
  // child's moments are the root's minus the left child's.
  auto full = train(2, &calls);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->num_nodes, 7);
  EXPECT_EQ(calls, 2);

  for (int depth = 1; depth <= 4; ++depth) {
    auto tree = train(depth, &calls);
    ASSERT_TRUE(tree.ok());
    EXPECT_LE(calls, InternalNodes(tree->root.get())) << "depth " << depth;
    EXPECT_LT(calls, tree->num_nodes) << "depth " << depth;
  }
}

TEST_F(CartTest, ThresholdsSkipNaNAndTrainRejectsIt) {
  // A NaN in row 0 used to stick as the column's min and max, turning
  // every threshold of the feature into NaN.
  CartOptions options;
  options.num_thresholds = 4;
  const int clean_count =
      CartTrainer(features_, &data_->catalog, options).NodeAggregateCount();
  Relation& oil = data_->catalog.mutable_relation(data_->oil);
  oil.mutable_column(oil.ColumnIndex(data_->price)).mutable_doubles()[0] =
      std::numeric_limits<double>::quiet_NaN();
  CartTrainer trainer(features_, &data_->catalog, options);
  EXPECT_EQ(trainer.NodeAggregateCount(), clean_count);
  const CartNodeBatch node = trainer.BuildNodeBatch({});
  for (ParamId p : node.batch.RequiredParams()) {
    EXPECT_TRUE(std::isfinite(node.params.Get(p))) << "slot " << p;
  }

  // NaN rows satisfy neither `x <= t` nor `x > t`, so training refuses
  // the column instead of growing children that lose rows.
  ScanCartProvider provider(joined_.get());
  auto tree = trainer.Train(&provider);
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(tree.status().message().find("price"), std::string::npos)
      << tree.status().ToString();
}

TEST_F(CartTest, TrainRejectsNaNAppendedAfterConstruction) {
  CartOptions options;
  options.max_depth = 1;
  CartTrainer trainer(features_, &data_->catalog, options);
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  LmfaoCartProvider provider(&engine);
  ASSERT_TRUE(trainer.Train(&provider).ok());

  ASSERT_TRUE(data_->catalog
                  .AppendRows(data_->oil,
                              {{Value::Int(0),
                                Value::Double(std::numeric_limits<
                                              double>::quiet_NaN())}})
                  .ok());
  auto tree = trainer.Train(&provider);
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(tree.status().message().find("price"), std::string::npos)
      << tree.status().ToString();
}

TEST(CartRetailerTest, NodeAggregateCountScale) {
  // With the Retailer schema (32 non-label continuous + 6 categorical
  // features), the per-node aggregate count is
  // 3 * (1 + 32*T + sum of categorical domains). The paper reports 3,141
  // per node; our count hits the same scale and the same formula shape.
  auto data = MakeRetailer(RetailerOptions{.num_inventory = 200});
  ASSERT_TRUE(data.ok());
  FeatureSet features;
  features.label = (*data)->inventoryunits;
  for (AttrId a : (*data)->continuous) {
    if (a != (*data)->inventoryunits) features.continuous.push_back(a);
  }
  features.categorical = (*data)->categorical;
  CartOptions options;
  options.num_thresholds = 32;
  CartTrainer trainer(features, &(*data)->catalog, options);
  const int count = trainer.NodeAggregateCount();
  // 3 * (1 + 32 features * 32 thresholds + categorical domain sizes).
  EXPECT_GT(count, 3000);
  EXPECT_EQ(count % 3, 0);
  const CartNodeBatch node = trainer.BuildNodeBatch({});
  EXPECT_EQ(node.batch.TotalAggregates(), count);
}

}  // namespace
}  // namespace lmfao
