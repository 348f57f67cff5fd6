#include "ml/linreg.h"

#include <algorithm>
#include <cmath>
#include <set>

namespace lmfao {

int FeatureIndex::CatBlock::PositionOf(int64_t value) const {
  const auto it = std::lower_bound(values.begin(), values.end(), value);
  if (it == values.end() || *it != value) return -1;
  return offset + static_cast<int>(it - values.begin());
}

namespace {

/// Symmetric store.
void Set(SigmaMatrix* sigma, int i, int j, double v) {
  const size_t dim = static_cast<size_t>(sigma->index.dim);
  sigma->data[static_cast<size_t>(i) * dim + static_cast<size_t>(j)] = v;
  sigma->data[static_cast<size_t>(j) * dim + static_cast<size_t>(i)] = v;
}

FeatureIndex BuildIndex(const FeatureSet& features,
                        const std::vector<std::vector<int64_t>>& cat_values) {
  FeatureIndex index;
  index.num_continuous = static_cast<int>(features.AllContinuous().size());
  int offset = 1 + index.num_continuous;
  for (size_t i = 0; i < features.categorical.size(); ++i) {
    FeatureIndex::CatBlock block;
    block.attr = features.categorical[i];
    block.values = cat_values[i];
    block.offset = offset;
    offset += static_cast<int>(block.values.size());
    index.blocks.push_back(std::move(block));
  }
  index.dim = offset;
  return index;
}

/// Finds the key component of attribute `attr` in a sorted group-by list.
int KeyComponentOf(const std::vector<AttrId>& group_by, AttrId attr) {
  for (size_t i = 0; i < group_by.size(); ++i) {
    if (group_by[i] == attr) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

StatusOr<SigmaMatrix> AssembleSigma(const CovarianceBatch& cov,
                                    const FeatureSet& features,
                                    const std::vector<QueryResult>& results) {
  if (results.size() != cov.info.size()) {
    return Status::InvalidArgument(
        "AssembleSigma: " + std::to_string(results.size()) +
        " results for " + std::to_string(cov.info.size()) + " queries");
  }
  // Pass 1: collect observed category values from the kCatCount queries.
  std::vector<std::vector<int64_t>> cat_values(features.categorical.size());
  for (size_t qi = 0; qi < cov.info.size(); ++qi) {
    const SigmaQueryInfo& info = cov.info[qi];
    if (info.kind != SigmaQueryInfo::Kind::kCatCount) continue;
    std::vector<int64_t>& values =
        cat_values[static_cast<size_t>(info.i)];
    results[qi].data.ForEach(
        [&values](const TupleKey& key, const double*) {
          values.push_back(key[0]);
        });
    std::sort(values.begin(), values.end());
  }

  SigmaMatrix sigma;
  sigma.index = BuildIndex(features, cat_values);
  sigma.data.assign(static_cast<size_t>(sigma.index.dim) *
                        static_cast<size_t>(sigma.index.dim),
                    0.0);

  // Pass 2: scatter every query result into the matrix.
  for (size_t qi = 0; qi < cov.info.size(); ++qi) {
    const SigmaQueryInfo& info = cov.info[qi];
    const QueryResult& r = results[qi];
    switch (info.kind) {
      case SigmaQueryInfo::Kind::kCount: {
        const double* p = r.data.Lookup(TupleKey());
        sigma.count = p == nullptr ? 0.0 : p[0];
        Set(&sigma, 0, 0, sigma.count);
        break;
      }
      case SigmaQueryInfo::Kind::kContSum: {
        const double* p = r.data.Lookup(TupleKey());
        Set(&sigma, 0, sigma.index.ContPosition(info.i),
            p == nullptr ? 0.0 : p[0]);
        break;
      }
      case SigmaQueryInfo::Kind::kContPair: {
        const double* p = r.data.Lookup(TupleKey());
        Set(&sigma, sigma.index.ContPosition(info.i),
            sigma.index.ContPosition(info.j), p == nullptr ? 0.0 : p[0]);
        break;
      }
      case SigmaQueryInfo::Kind::kCatCount: {
        const auto& block = sigma.index.blocks[static_cast<size_t>(info.i)];
        r.data.ForEach([&](const TupleKey& key, const double* payload) {
          const int pos = block.PositionOf(key[0]);
          if (pos < 0) return;
          Set(&sigma, 0, pos, payload[0]);
          Set(&sigma, pos, pos, payload[0]);
        });
        break;
      }
      case SigmaQueryInfo::Kind::kCatCont: {
        const auto& block = sigma.index.blocks[static_cast<size_t>(info.i)];
        const int cont_pos = sigma.index.ContPosition(info.j);
        r.data.ForEach([&](const TupleKey& key, const double* payload) {
          const int pos = block.PositionOf(key[0]);
          if (pos >= 0) Set(&sigma, pos, cont_pos, payload[0]);
        });
        break;
      }
      case SigmaQueryInfo::Kind::kCatPair: {
        const auto& bi = sigma.index.blocks[static_cast<size_t>(info.i)];
        const auto& bj = sigma.index.blocks[static_cast<size_t>(info.j)];
        const int ci = KeyComponentOf(r.group_by, bi.attr);
        const int cj = KeyComponentOf(r.group_by, bj.attr);
        r.data.ForEach([&](const TupleKey& key, const double* payload) {
          const int pi = bi.PositionOf(key[ci]);
          const int pj = bj.PositionOf(key[cj]);
          if (pi >= 0 && pj >= 0) Set(&sigma, pi, pj, payload[0]);
        });
        break;
      }
    }
  }
  return sigma;
}

StatusOr<SigmaMatrix> ComputeSigmaLmfao(Engine* engine,
                                        const FeatureSet& features,
                                        const Catalog& catalog) {
  LMFAO_ASSIGN_OR_RETURN(CovarianceBatch cov,
                         BuildCovarianceBatch(features, catalog));
  // Prepare + Execute: the covariance batch shape is compiled once per
  // engine (plan cache), so recomputing Sigma — retrains, benchmark loops
  // — pays only the execution layer.
  LMFAO_ASSIGN_OR_RETURN(PreparedBatch prepared, engine->Prepare(cov.batch));
  LMFAO_ASSIGN_OR_RETURN(BatchResult evaluated, prepared.Execute());
  return AssembleSigma(cov, features, evaluated.results);
}

StatusOr<SigmaRefresher> SigmaRefresher::Create(Engine* engine,
                                                const FeatureSet& features,
                                                const Catalog& catalog) {
  SigmaRefresher refresher;
  refresher.features_ = features;
  LMFAO_ASSIGN_OR_RETURN(refresher.cov_,
                         BuildCovarianceBatch(features, catalog));
  LMFAO_ASSIGN_OR_RETURN(refresher.prepared_,
                         engine->Prepare(refresher.cov_.batch));
  LMFAO_ASSIGN_OR_RETURN(refresher.result_, refresher.prepared_.Execute());
  return refresher;
}

StatusOr<SigmaMatrix> SigmaRefresher::Current() const {
  return AssembleSigma(cov_, features_, result_.results);
}

StatusOr<SigmaMatrix> SigmaRefresher::Refresh() {
  ExecRequest request;
  request.delta_base = &result_;
  LMFAO_ASSIGN_OR_RETURN(BatchResult refreshed, prepared_.Execute(request));
  result_ = std::move(refreshed);
  return Current();
}

StatusOr<SigmaMatrix> ComputeSigmaScan(const Relation& joined,
                                       const FeatureSet& features,
                                       const Catalog& catalog) {
  (void)catalog;
  const std::vector<AttrId> cont = features.AllContinuous();
  std::vector<int> cont_cols;
  for (AttrId a : cont) {
    const int col = joined.ColumnIndex(a);
    if (col < 0) return Status::InvalidArgument("feature missing from join");
    cont_cols.push_back(col);
  }
  std::vector<int> cat_cols;
  std::vector<std::vector<int64_t>> cat_values(features.categorical.size());
  for (size_t i = 0; i < features.categorical.size(); ++i) {
    const int col = joined.ColumnIndex(features.categorical[i]);
    if (col < 0) return Status::InvalidArgument("feature missing from join");
    cat_cols.push_back(col);
    std::set<int64_t> distinct;
    const auto& ints = joined.column(col).ints();
    distinct.insert(ints.begin(), ints.end());
    cat_values[i].assign(distinct.begin(), distinct.end());
  }

  SigmaMatrix sigma;
  sigma.index = BuildIndex(features, cat_values);
  sigma.data.assign(static_cast<size_t>(sigma.index.dim) *
                        static_cast<size_t>(sigma.index.dim),
                    0.0);

  // Sparse active positions per row: intercept, continuous, one active
  // one-hot per categorical block.
  const int nc = static_cast<int>(cont_cols.size());
  std::vector<int> active;
  std::vector<double> value;
  for (size_t row = 0; row < joined.num_rows(); ++row) {
    active.clear();
    value.clear();
    active.push_back(0);
    value.push_back(1.0);
    for (int i = 0; i < nc; ++i) {
      active.push_back(sigma.index.ContPosition(i));
      value.push_back(joined.column(cont_cols[static_cast<size_t>(i)])
                          .AsDouble(row));
    }
    for (size_t i = 0; i < cat_cols.size(); ++i) {
      const int64_t v = joined.column(cat_cols[i]).AsInt(row);
      const int pos = sigma.index.blocks[i].PositionOf(v);
      if (pos >= 0) {
        active.push_back(pos);
        value.push_back(1.0);
      }
    }
    for (size_t a = 0; a < active.size(); ++a) {
      for (size_t b = a; b < active.size(); ++b) {
        const int i = std::min(active[a], active[b]);
        const int j = std::max(active[a], active[b]);
        // Accumulate only the upper triangle; mirror at the end.
        sigma.data[static_cast<size_t>(i) *
                       static_cast<size_t>(sigma.index.dim) +
                   static_cast<size_t>(j)] += value[a] * value[b];
      }
    }
  }
  // Mirror.
  for (int i = 0; i < sigma.index.dim; ++i) {
    for (int j = i + 1; j < sigma.index.dim; ++j) {
      sigma.data[static_cast<size_t>(j) *
                     static_cast<size_t>(sigma.index.dim) +
                 static_cast<size_t>(i)] = sigma.At(i, j);
    }
  }
  sigma.count = sigma.At(0, 0);
  return sigma;
}

StatusOr<BgdResult> TrainRidgeBgd(const SigmaMatrix& sigma,
                                  const BgdOptions& options) {
  const int dim = sigma.index.dim;
  if (dim < 2 || sigma.count <= 0) {
    return Status::InvalidArgument("degenerate covariance matrix");
  }
  const double n = sigma.count;
  const int label_pos = sigma.index.ContPosition(0);

  // Standardization constants from Sigma itself.
  std::vector<double> mean(static_cast<size_t>(dim), 0.0);
  std::vector<double> stddev(static_cast<size_t>(dim), 0.0);
  for (int i = 1; i < dim; ++i) {
    mean[static_cast<size_t>(i)] = sigma.At(0, i) / n;
    const double ex2 = sigma.At(i, i) / n;
    const double var =
        std::max(0.0, ex2 - mean[static_cast<size_t>(i)] *
                                mean[static_cast<size_t>(i)]);
    stddev[static_cast<size_t>(i)] = std::sqrt(var);
  }
  const double y_std = stddev[static_cast<size_t>(label_pos)];
  if (y_std < 1e-12) {
    return Status::InvalidArgument("label has zero variance");
  }

  // Free parameter positions: everything except intercept and label, with
  // non-zero variance.
  std::vector<int> free_pos;
  for (int i = 1; i < dim; ++i) {
    if (i == label_pos) continue;
    if (stddev[static_cast<size_t>(i)] > 1e-12) free_pos.push_back(i);
  }
  const int m = static_cast<int>(free_pos.size());

  // Standardized correlation system: R (m x m), r (m), plus var(y)=1.
  auto corr = [&](int a, int b) {
    const double cov =
        sigma.At(a, b) / n -
        mean[static_cast<size_t>(a)] * mean[static_cast<size_t>(b)];
    return cov / (stddev[static_cast<size_t>(a)] *
                  stddev[static_cast<size_t>(b)]);
  };
  std::vector<double> big_r(static_cast<size_t>(m) * static_cast<size_t>(m));
  std::vector<double> r_xy(static_cast<size_t>(m));
  for (int a = 0; a < m; ++a) {
    for (int b = 0; b < m; ++b) {
      big_r[static_cast<size_t>(a) * static_cast<size_t>(m) +
            static_cast<size_t>(b)] = corr(free_pos[static_cast<size_t>(a)],
                                           free_pos[static_cast<size_t>(b)]);
    }
    r_xy[static_cast<size_t>(a)] =
        corr(free_pos[static_cast<size_t>(a)], label_pos);
  }

  auto loss = [&](const std::vector<double>& theta) {
    double quad = 0.0;
    double lin = 0.0;
    double norm = 0.0;
    for (int a = 0; a < m; ++a) {
      double row = 0.0;
      for (int b = 0; b < m; ++b) {
        row += big_r[static_cast<size_t>(a) * static_cast<size_t>(m) +
                     static_cast<size_t>(b)] *
               theta[static_cast<size_t>(b)];
      }
      quad += theta[static_cast<size_t>(a)] * row;
      lin += theta[static_cast<size_t>(a)] * r_xy[static_cast<size_t>(a)];
      norm += theta[static_cast<size_t>(a)] * theta[static_cast<size_t>(a)];
    }
    return 0.5 * (quad - 2.0 * lin + 1.0) + 0.5 * options.lambda * norm;
  };
  auto gradient = [&](const std::vector<double>& theta,
                      std::vector<double>* grad) {
    for (int a = 0; a < m; ++a) {
      double row = 0.0;
      for (int b = 0; b < m; ++b) {
        row += big_r[static_cast<size_t>(a) * static_cast<size_t>(m) +
                     static_cast<size_t>(b)] *
               theta[static_cast<size_t>(b)];
      }
      (*grad)[static_cast<size_t>(a)] =
          row - r_xy[static_cast<size_t>(a)] +
          options.lambda * theta[static_cast<size_t>(a)];
    }
  };

  std::vector<double> theta(static_cast<size_t>(m), 0.0);
  std::vector<double> grad(static_cast<size_t>(m), 0.0);
  std::vector<double> candidate(static_cast<size_t>(m), 0.0);
  BgdResult result;
  double current = loss(theta);
  result.loss_history.push_back(current);
  double lr = options.learning_rate > 0 ? options.learning_rate : 1.0;
  for (int it = 0; it < options.max_iterations; ++it) {
    gradient(theta, &grad);
    double next = current;
    if (options.learning_rate > 0) {
      for (int a = 0; a < m; ++a) {
        theta[static_cast<size_t>(a)] -= lr * grad[static_cast<size_t>(a)];
      }
      next = loss(theta);
    } else {
      // Backtracking line search.
      for (int half = 0; half < 60; ++half) {
        for (int a = 0; a < m; ++a) {
          candidate[static_cast<size_t>(a)] =
              theta[static_cast<size_t>(a)] - lr * grad[static_cast<size_t>(a)];
        }
        next = loss(candidate);
        if (next <= current) break;
        lr *= 0.5;
      }
      theta = candidate;
      lr *= 1.1;  // Allow recovery.
    }
    result.loss_history.push_back(next);
    ++result.iterations;
    if (current - next >= 0 &&
        current - next < options.tolerance * std::max(1.0, current)) {
      current = next;
      break;
    }
    current = next;
  }
  result.final_loss = current;

  // Scatter back into the FeatureIndex layout.
  result.theta.assign(static_cast<size_t>(dim), 0.0);
  result.theta[static_cast<size_t>(label_pos)] = -1.0;
  for (int a = 0; a < m; ++a) {
    result.theta[static_cast<size_t>(free_pos[static_cast<size_t>(a)])] =
        theta[static_cast<size_t>(a)];
  }
  return result;
}

}  // namespace lmfao
