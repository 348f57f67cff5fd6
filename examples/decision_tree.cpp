/// \file decision_tree.cpp
/// \brief CART regression tree over the Retailer join (Section 3): a tree
/// node is evaluated by one batch of SUM(1)/SUM(Y)/SUM(Y^2) aggregates under
/// threshold conditions — thousands of aggregates per node, all pushed
/// through LMFAO without materializing the join. Leaves and most right
/// children need no batch: their moments follow from their parent's and
/// their sibling's.
///
/// Run: ./decision_tree [num_inventory] [max_depth]

#include <cstdio>
#include <cstdlib>
#include <functional>

#include "data/retailer.h"
#include "engine/engine.h"
#include "ml/cart.h"
#include "util/timer.h"

using namespace lmfao;

namespace {

/// Forwards node batches to another provider and counts them.
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

void PrintTree(const Catalog& catalog, const CartNode* node, int depth) {
  for (int i = 0; i < depth; ++i) std::printf("  ");
  if (node->is_leaf) {
    std::printf("leaf: predict %.3f (n=%.0f, var=%.3f)\n", node->prediction,
                node->count, node->variance);
    return;
  }
  std::printf("%s %s %.3f (n=%.0f)\n",
              catalog.attr(node->split.attr).name.c_str(),
              node->split.op == FunctionKind::kIndicatorLe ? "<=" : "==",
              node->split.threshold, node->count);
  PrintTree(catalog, node->left.get(), depth + 1);
  PrintTree(catalog, node->right.get(), depth + 1);
}

}  // namespace

int main(int argc, char** argv) {
  RetailerOptions options;
  options.num_inventory = argc > 1 ? std::atoll(argv[1]) : 100000;
  auto data_or = MakeRetailer(options);
  if (!data_or.ok()) {
    std::fprintf(stderr, "%s\n", data_or.status().ToString().c_str());
    return 1;
  }
  RetailerData& db = **data_or;

  FeatureSet features;
  features.label = db.inventoryunits;
  for (AttrId a : db.continuous) {
    if (a != db.inventoryunits) features.continuous.push_back(a);
  }
  features.categorical = db.categorical;

  CartOptions cart;
  cart.max_depth = argc > 2 ? std::atoi(argv[2]) : 3;
  cart.num_thresholds = 32;
  CartTrainer trainer(features, &db.catalog, cart);
  std::printf("per-node aggregate batch: %d aggregates (paper: 3141)\n",
              trainer.NodeAggregateCount());

  Engine engine(&db.catalog, &db.tree, EngineOptions{});
  LmfaoCartProvider lmfao(&engine);
  CountingProvider provider(&lmfao);
  Timer timer;
  auto tree_or = trainer.Train(&provider);
  if (!tree_or.ok()) {
    std::fprintf(stderr, "%s\n", tree_or.status().ToString().c_str());
    return 1;
  }
  std::printf("trained %d nodes (depth %d) with %d node batches in %.1f ms\n",
              tree_or->num_nodes, tree_or->depth, provider.calls,
              timer.ElapsedMillis());
  // Node batches are parameterized, so every batch whose path shape was
  // seen before executes against a cached compiled artifact.
  const Engine::PlanCacheStats cache = engine.plan_cache_stats();
  std::printf(
      "plan cache: %zu distinct batch shapes compiled, %zu cache hits\n\n",
      cache.entries, cache.hits);
  PrintTree(db.catalog, tree_or->root.get(), 0);
  return 0;
}
