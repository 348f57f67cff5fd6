#include "ml/cart.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <shared_mutex>

#include "baseline/naive_engine.h"

namespace lmfao {

double DecisionTree::Predict(const Relation& rel, size_t row) const {
  const CartNode* node = root.get();
  while (node != nullptr && !node->is_leaf) {
    const int col = rel.ColumnIndex(node->split.attr);
    LMFAO_CHECK_GE(col, 0);
    const double x = rel.column(col).AsDouble(row);
    const bool goes_left =
        Function::Indicator(node->split.op, node->split.threshold).Eval(x) >
        0.5;
    node = goes_left ? node->left.get() : node->right.get();
  }
  return node == nullptr ? 0.0 : node->prediction;
}

StatusOr<std::vector<QueryResult>> LmfaoCartProvider::EvaluateBatch(
    const QueryBatch& batch, const ParamPack& params) {
  // Prepare routes through the engine's structural plan cache: all node
  // batches sharing this shape (same path attr/op sequence) reuse one
  // compiled artifact and only pay execution here.
  LMFAO_ASSIGN_OR_RETURN(PreparedBatch prepared, engine_->Prepare(batch));
  ExecRequest request(params);
  request.limits = limits_;
  StatusOr<BatchResult> result = prepared.Execute(request);
  if (!result.ok() && result.status().IsRetryable() && limits_.enabled()) {
    // One node's batch blew the view-byte budget (or hit a transient
    // fault): degrade this node by re-running it without limits rather
    // than failing the training run.
    ++limit_retries_;
    request.limits = ExecLimits{};
    result = prepared.Execute(request);
  }
  LMFAO_RETURN_NOT_OK(result.status());
  return std::move(result->results);
}

StatusOr<std::vector<QueryResult>> ScanCartProvider::EvaluateBatch(
    const QueryBatch& batch, const ParamPack& params) {
  LMFAO_ASSIGN_OR_RETURN(QueryBatch bound, batch.Bind(params));
  return EvaluateBatchSharedScan(*joined_, bound);
}

namespace {

/// The column holding `attr` in the base relation that owns it: a
/// feature's observed values need no join.
const Column* FeatureColumn(const Catalog& catalog, AttrId attr) {
  for (RelationId r = 0; r < catalog.num_relations(); ++r) {
    const int col = catalog.relation(r).ColumnIndex(attr);
    if (col >= 0) return &catalog.relation(r).column(col);
  }
  return nullptr;
}

}  // namespace

CartTrainer::CartTrainer(const FeatureSet& features, const Catalog* catalog,
                         CartOptions options)
    : features_(features), catalog_(catalog), options_(options) {
  for (AttrId attr : features_.continuous) {
    std::vector<double> thresholds;
    const Column* col = FeatureColumn(*catalog, attr);
    // A NaN compares false with everything, so once it seeds min or max it
    // sticks. Train rejects NaN columns; here it must not spoil the range.
    double lo = std::numeric_limits<double>::infinity();
    double hi = -lo;
    for (size_t i = 0; col != nullptr && i < col->size(); ++i) {
      const double x = col->AsDouble(i);
      if (std::isnan(x)) continue;
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
    if (lo <= hi) {
      for (int t = 1; t <= options_.num_thresholds; ++t) {
        thresholds.push_back(
            lo + (hi - lo) * static_cast<double>(t) /
                     static_cast<double>(options_.num_thresholds + 1));
      }
    }
    cont_thresholds_.push_back(std::move(thresholds));
  }
  for (AttrId attr : features_.categorical) {
    std::set<int64_t> values;
    const Column* col = FeatureColumn(*catalog, attr);
    if (col != nullptr) {
      values.insert(col->ints().begin(), col->ints().end());
    }
    cat_values_.emplace_back(values.begin(), values.end());
  }
}

CartNodeBatch CartTrainer::BuildNodeBatch(
    const std::vector<CartCondition>& path) const {
  CartNodeBatch out;
  // Slot allocation is positional and deterministic: path conditions
  // first, then candidates in enumeration order. Two nodes whose paths
  // agree on (attr, op) sequences therefore build byte-identical query
  // structures — the engine's plan cache key — with only these bindings
  // differing.
  ParamId next_param = 0;
  std::vector<Factor> path_factors;
  for (const CartCondition& c : path) {
    path_factors.push_back(c.ToParamFactor(next_param));
    out.params.Set(next_param, c.threshold);
    ++next_param;
  }

  auto make_query = [&](const std::string& name,
                        const std::vector<Factor>& extra) {
    Query q;
    q.name = name;
    std::vector<Factor> base = path_factors;
    base.insert(base.end(), extra.begin(), extra.end());
    // SUM(conds), SUM(conds*Y), SUM(conds*Y^2).
    q.aggregates.push_back(Aggregate(base));
    std::vector<Factor> with_y = base;
    with_y.push_back(Factor{features_.label, Function::Identity()});
    q.aggregates.push_back(Aggregate(with_y));
    std::vector<Factor> with_y2 = base;
    with_y2.push_back(Factor{features_.label, Function::Square()});
    q.aggregates.push_back(Aggregate(with_y2));
    return q;
  };
  auto candidate_factor = [&](AttrId attr, FunctionKind op, double value) {
    Factor f{attr, Function::IndicatorParam(op, next_param)};
    out.params.Set(next_param, value);
    ++next_param;
    return f;
  };

  // Node totals (needed for the complement side of every split).
  out.batch.Add(make_query("node_total", {}));
  for (size_t f = 0; f < features_.continuous.size(); ++f) {
    for (double t : cont_thresholds_[f]) {
      out.batch.Add(make_query(
          "cont_" + std::to_string(f) + "_" + std::to_string(t),
          {candidate_factor(features_.continuous[f],
                            FunctionKind::kIndicatorLe, t)}));
    }
  }
  for (size_t f = 0; f < features_.categorical.size(); ++f) {
    for (int64_t v : cat_values_[f]) {
      out.batch.Add(make_query(
          "cat_" + std::to_string(f) + "_" + std::to_string(v),
          {candidate_factor(features_.categorical[f],
                            FunctionKind::kIndicatorEq,
                            static_cast<double>(v))}));
    }
  }
  return out;
}

int CartTrainer::NodeAggregateCount() const {
  int candidates = 1;  // node_total
  for (const auto& t : cont_thresholds_) {
    candidates += static_cast<int>(t.size());
  }
  for (const auto& v : cat_values_) candidates += static_cast<int>(v.size());
  return candidates * 3;
}

namespace {

/// Variance*count from (count, sum, sum of squares).
double ScaledVariance(double count, double sum, double sum2) {
  if (count <= 0) return 0.0;
  return sum2 - sum * sum / count;
}

}  // namespace

bool CartTrainer::CanSplit(double count, int depth) const {
  return depth < options_.max_depth && count >= 2 * options_.min_leaf_count;
}

Status CartTrainer::CheckNoNaN() const {
  std::shared_lock<std::shared_mutex> lock(catalog_->data_mutex());
  for (AttrId attr : features_.continuous) {
    const Column* col = FeatureColumn(*catalog_, attr);
    if (col == nullptr || col->type() != AttrType::kDouble) continue;
    for (double x : col->doubles()) {
      if (std::isnan(x)) {
        return Status::InvalidArgument(
            "CART: continuous feature '" + catalog_->attr(attr).name +
            "' holds NaN; its rows would take neither side of a split");
      }
    }
  }
  return Status::OK();
}

StatusOr<std::vector<double>> CartTrainer::EvaluateMoments(
    CartAggregateProvider* provider,
    const std::vector<CartCondition>& path) const {
  const CartNodeBatch node_batch = BuildNodeBatch(path);
  LMFAO_ASSIGN_OR_RETURN(
      std::vector<QueryResult> results,
      provider->EvaluateBatch(node_batch.batch, node_batch.params));
  std::vector<double> moments(3 * results.size(), 0.0);
  for (size_t q = 0; q < results.size(); ++q) {
    const double* p = results[q].data.Lookup(TupleKey());
    if (p != nullptr) std::copy(p, p + 3, moments.begin() + 3 * q);
  }
  return moments;
}

Status CartTrainer::GrowNode(CartAggregateProvider* provider,
                             const std::vector<CartCondition>& path,
                             int depth, const Moments& totals,
                             std::vector<double>* moments, CartNode* node,
                             int* num_nodes, int* max_depth) {
  *max_depth = std::max(*max_depth, depth);
  const double total_scaled_var =
      ScaledVariance(totals.count, totals.sum, totals.sum2);
  node->count = totals.count;
  node->prediction = totals.count > 0 ? totals.sum / totals.count : 0.0;
  node->variance = totals.count > 0 ? total_scaled_var / totals.count : 0.0;
  if (!CanSplit(totals.count, depth)) return Status::OK();
  if (moments->empty()) {
    LMFAO_ASSIGN_OR_RETURN(*moments, EvaluateMoments(provider, path));
  }
  auto moments_at = [&](size_t q) {
    return Moments{(*moments)[3 * q], (*moments)[3 * q + 1],
                   (*moments)[3 * q + 2]};
  };

  // Scan all candidates; queries after index 0 follow BuildNodeBatch order.
  CartCondition best_condition;
  size_t best_query = 0;
  double best_gain = options_.min_variance_gain;
  size_t qi = 1;
  auto consider = [&](const CartCondition& cond) {
    const Moments left = moments_at(qi++);
    const double rc = totals.count - left.count;
    if (left.count < options_.min_leaf_count ||
        rc < options_.min_leaf_count) {
      return;
    }
    const double left_var = ScaledVariance(left.count, left.sum, left.sum2);
    const double right_var = ScaledVariance(rc, totals.sum - left.sum,
                                            totals.sum2 - left.sum2);
    const double gain = total_scaled_var - left_var - right_var;
    if (gain > best_gain) {
      best_condition = cond;
      best_query = qi - 1;
      best_gain = gain;
    }
  };
  for (size_t f = 0; f < features_.continuous.size(); ++f) {
    for (double t : cont_thresholds_[f]) {
      consider(CartCondition{features_.continuous[f],
                             FunctionKind::kIndicatorLe, t});
    }
  }
  for (size_t f = 0; f < features_.categorical.size(); ++f) {
    for (int64_t v : cat_values_[f]) {
      consider(CartCondition{features_.categorical[f],
                             FunctionKind::kIndicatorEq,
                             static_cast<double>(v)});
    }
  }
  if (best_query == 0) return Status::OK();

  node->is_leaf = false;
  node->split = best_condition;
  node->left = std::make_unique<CartNode>();
  node->right = std::make_unique<CartNode>();
  *num_nodes += 2;

  const Moments left_totals = moments_at(best_query);
  const Moments right_totals{totals.count - left_totals.count,
                             totals.sum - left_totals.sum,
                             totals.sum2 - left_totals.sum2};
  std::vector<CartCondition> child_path = path;
  child_path.push_back(best_condition);
  std::vector<double> child_moments;
  LMFAO_RETURN_NOT_OK(GrowNode(provider, child_path, depth + 1, left_totals,
                               &child_moments, node->left.get(), num_nodes,
                               max_depth));

  // Every row satisfies exactly one of a split and its complement, and SUM
  // is linear: the right child's moments for every query are this node's
  // minus the left child's. Derived in place; when the left child ran no
  // batch, the right child evaluates its own if it can split.
  for (size_t i = 0; i < child_moments.size(); ++i) {
    child_moments[i] = (*moments)[i] - child_moments[i];
  }
  child_path.back().op = best_condition.op == FunctionKind::kIndicatorLe
                             ? FunctionKind::kIndicatorGt
                             : FunctionKind::kIndicatorNe;
  return GrowNode(provider, child_path, depth + 1, right_totals,
                  &child_moments, node->right.get(), num_nodes, max_depth);
}

StatusOr<DecisionTree> CartTrainer::Train(CartAggregateProvider* provider) {
  LMFAO_RETURN_NOT_OK(CheckNoNaN());
  // The root is the one node whose totals come from its own batch.
  LMFAO_ASSIGN_OR_RETURN(std::vector<double> moments,
                         EvaluateMoments(provider, {}));
  const Moments totals{moments[0], moments[1], moments[2]};
  DecisionTree tree;
  tree.root = std::make_unique<CartNode>();
  tree.num_nodes = 1;
  LMFAO_RETURN_NOT_OK(GrowNode(provider, {}, 0, totals, &moments,
                               tree.root.get(), &tree.num_nodes, &tree.depth));
  return tree;
}

}  // namespace lmfao
