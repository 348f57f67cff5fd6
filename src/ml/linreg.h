/// \file linreg.h
/// \brief Ridge linear regression with batch gradient descent over the
/// covariance matrix (Section 3 of the paper).
///
/// The data-intensive part of BGD is Sigma = sum_{x in D} x x^T; it does not
/// depend on the parameters, so LMFAO computes the aggregate batch once and
/// every descent iteration is a cheap matrix-vector product. Categorical
/// features are one-hot encoded: their Sigma entries arrive as group-by
/// results whose keys are mapped to dense one-hot positions.

#ifndef LMFAO_ML_LINREG_H_
#define LMFAO_ML_LINREG_H_

#include <vector>

#include "engine/engine.h"
#include "ml/feature.h"
#include "storage/relation.h"
#include "util/status.h"

namespace lmfao {

/// \brief Dense layout of the model's parameter vector.
///
/// Position 0 is the intercept; positions 1..p are the continuous features
/// (label first, fixed to -1 in the descent); categorical blocks follow.
struct FeatureIndex {
  /// Number of continuous positions (label + continuous features).
  int num_continuous = 0;
  struct CatBlock {
    AttrId attr = kInvalidAttr;
    /// Sorted category values observed in the data.
    std::vector<int64_t> values;
    /// Dense offset of the block's first position.
    int offset = 0;
    /// Position of `value` within the block, or -1.
    int PositionOf(int64_t value) const;
  };
  std::vector<CatBlock> blocks;
  /// Total dimension (1 + num_continuous + one-hot positions).
  int dim = 0;

  /// Dense position of continuous feature i (0 = label).
  int ContPosition(int i) const { return 1 + i; }
};

/// \brief The assembled covariance matrix.
struct SigmaMatrix {
  FeatureIndex index;
  /// Row-major dim x dim symmetric matrix.
  std::vector<double> data;
  /// |D| (the (0,0) entry).
  double count = 0.0;

  double At(int i, int j) const {
    return data[static_cast<size_t>(i) * static_cast<size_t>(index.dim) +
                static_cast<size_t>(j)];
  }
};

/// \brief Assembles Sigma from the covariance batch's query results
/// (the two-pass scatter behind ComputeSigmaLmfao, shared with
/// SigmaRefresher). `results` must be parallel to `cov.info`.
StatusOr<SigmaMatrix> AssembleSigma(const CovarianceBatch& cov,
                                    const FeatureSet& features,
                                    const std::vector<QueryResult>& results);

/// \brief Computes Sigma with LMFAO (one aggregate batch).
StatusOr<SigmaMatrix> ComputeSigmaLmfao(Engine* engine,
                                        const FeatureSet& features,
                                        const Catalog& catalog);

/// \brief Incrementally maintained Sigma over an append-only database.
///
/// Prepares the covariance batch once and executes it once at creation;
/// every `Refresh()` folds only the rows appended since the held epoch
/// into the retained batch result (an ExecRequest::delta_base refresh) and
/// re-assembles Sigma — so a retrain after a trickle of appends pays the
/// delta pass, not a full 800-aggregate recompute. New category values
/// arriving in appended rows grow the one-hot blocks naturally: they show
/// up as new group-by keys in the merged results.
///
/// After a structural (non-append) mutation the underlying handle is
/// stale; Refresh surfaces FailedPrecondition and the caller rebuilds the
/// refresher.
class SigmaRefresher {
 public:
  static StatusOr<SigmaRefresher> Create(Engine* engine,
                                         const FeatureSet& features,
                                         const Catalog& catalog);

  /// Sigma assembled from the held result (the epoch of the last
  /// Create/Refresh).
  StatusOr<SigmaMatrix> Current() const;

  /// Folds rows appended since the held epoch and returns the refreshed
  /// Sigma. A no-op (beyond an epoch check) when nothing was appended.
  StatusOr<SigmaMatrix> Refresh();

  /// Stats of the last execution (delta fields populated after Refresh).
  const ExecutionStats& last_stats() const { return result_.stats; }

 private:
  SigmaRefresher() = default;

  CovarianceBatch cov_;
  FeatureSet features_;
  PreparedBatch prepared_;
  BatchResult result_;
};

/// \brief Computes Sigma by scanning the materialized join (baseline).
StatusOr<SigmaMatrix> ComputeSigmaScan(const Relation& joined,
                                       const FeatureSet& features,
                                       const Catalog& catalog);

/// \brief Options of the descent.
struct BgdOptions {
  double lambda = 1e-3;      ///< Ridge penalty.
  double learning_rate = 0;  ///< 0 = backtracking line search.
  int max_iterations = 500;
  double tolerance = 1e-8;   ///< Stop on relative loss improvement below.
};

/// \brief Training output.
struct BgdResult {
  /// Parameters in FeatureIndex layout (label position holds -1).
  std::vector<double> theta;
  std::vector<double> loss_history;
  int iterations = 0;
  double final_loss = 0.0;
};

/// \brief Trains ridge regression by BGD over a precomputed Sigma.
///
/// Works on standardized features internally (means/scales derived from
/// Sigma itself), which makes fixed-rate descent stable; returned
/// parameters are in the standardized space, with loss_history reporting
/// the standardized ridge objective.
StatusOr<BgdResult> TrainRidgeBgd(const SigmaMatrix& sigma,
                                  const BgdOptions& options = {});

}  // namespace lmfao

#endif  // LMFAO_ML_LINREG_H_
