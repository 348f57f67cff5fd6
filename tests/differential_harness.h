/// \file differential_harness.h
/// \brief Shared differential-testing helpers: result comparison with
/// per-key diff output, and a seed/schedule reproducer for randomized
/// tests.
///
/// Every differential suite (prepared_batch_test, property_test,
/// baseline_test, delta_execution_test) compares engine output against an
/// oracle — a fresh recompute, the scan baseline, or another engine
/// configuration. This header is the one place that comparison lives:
/// `ExpectResultsMatch` checks whole result vectors and, on mismatch,
/// prints the first differing (key, slot) entries of the offending query,
/// while `LMFAO_REPRO_TRACE` scopes every assertion with the RNG seed and
/// mutation schedule needed to replay the exact failing run. The request
/// shorthand at the end builds the delta ExecRequests those suites
/// compare.

#ifndef LMFAO_TESTS_DIFFERENTIAL_HARNESS_H_
#define LMFAO_TESTS_DIFFERENTIAL_HARNESS_H_

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/naive_engine.h"
#include "engine/engine.h"
#include "query/query.h"
#include "storage/view.h"

namespace lmfao {
namespace testing {

/// Records the mutation schedule of one randomized run — which relation
/// grew by how many rows before each refresh — so a failure message alone
/// is enough to replay the run.
struct AppendSchedule {
  struct Step {
    std::string relation;
    size_t rows = 0;
  };
  std::vector<Step> steps;

  void Record(const std::string& relation, size_t rows) {
    steps.push_back(Step{relation, rows});
  }

  std::string ToString() const {
    std::ostringstream out;
    if (steps.empty()) return "(no appends)";
    for (size_t i = 0; i < steps.size(); ++i) {
      if (i > 0) out << ", ";
      out << steps[i].relation << "+=" << steps[i].rows;
    }
    return out.str();
  }
};

/// The reproducer line printed under every failing assertion in scope.
inline std::string ReproMessage(uint64_t seed, const AppendSchedule& schedule) {
  std::ostringstream out;
  out << "repro: seed=" << seed << " schedule=[" << schedule.ToString() << "]";
  return out.str();
}

inline std::string ReproMessage(uint64_t seed) {
  return ReproMessage(seed, AppendSchedule{});
}

/// Scopes all assertions below with the seed (and optional append
/// schedule) of the current randomized run; any failure then prints the
/// full reproducer. Usage:
///   LMFAO_REPRO_TRACE(seed, schedule);
#define LMFAO_REPRO_TRACE(...) \
  SCOPED_TRACE(::lmfao::testing::ReproMessage(__VA_ARGS__))

namespace internal {

inline bool PayloadsAgree(double x, double y, double rel_tol) {
  if (x == y) return true;  // Covers the bit-for-bit (rel_tol = 0) case.
  const double scale = std::max({1.0, std::fabs(x), std::fabs(y)});
  return std::fabs(x - y) <= rel_tol * scale;
}

inline std::string KeyToString(const TupleKey& key) {
  std::ostringstream out;
  out << "(";
  for (int c = 0; c < key.size(); ++c) {
    if (c > 0) out << ", ";
    out << key[c];
  }
  out << ")";
  return out.str();
}

}  // namespace internal

/// Renders the first differing (key, slot) entries between two query
/// results (missing keys count as zero payloads, matching
/// ResultsEquivalent's contract).
inline std::string DescribeResultDiff(const QueryResult& got,
                                      const QueryResult& want,
                                      double rel_tol, int max_entries = 5) {
  std::ostringstream out;
  int shown = 0;
  const int width = std::max(got.data.width(), want.data.width());
  auto compare_side = [&](const QueryResult& a, const QueryResult& b,
                          bool keys_of_a_only) {
    a.data.ForEach([&](const TupleKey& key, const double* pa) {
      if (shown >= max_entries) return;
      const double* pb = b.data.Lookup(key);
      if (keys_of_a_only && pb != nullptr) return;  // Handled by first side.
      for (int s = 0; s < width; ++s) {
        const double va = s < a.data.width() ? pa[s] : 0.0;
        const double vb = pb != nullptr && s < b.data.width() ? pb[s] : 0.0;
        const double got_v = keys_of_a_only ? vb : va;
        const double want_v = keys_of_a_only ? va : vb;
        if (!internal::PayloadsAgree(got_v, want_v, rel_tol)) {
          out.precision(17);
          out << "  key " << internal::KeyToString(key) << " slot " << s
              << ": got " << got_v << ", want " << want_v << "\n";
          ++shown;
          if (shown >= max_entries) return;
        }
      }
    });
  };
  compare_side(got, want, /*keys_of_a_only=*/false);
  compare_side(want, got, /*keys_of_a_only=*/true);  // Keys missing in got.
  if (shown == 0) return "  (no differing entries found)\n";
  return out.str();
}

/// EXPECT-style comparison of two whole result vectors; `rel_tol` 0.0
/// demands bit-for-bit equality. On mismatch, fails with the query index,
/// the caller's label, and the first differing entries.
inline void ExpectResultsMatch(const std::vector<QueryResult>& got,
                               const std::vector<QueryResult>& want,
                               double rel_tol, const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t q = 0; q < want.size(); ++q) {
    if (!ResultsEquivalent(got[q], want[q], rel_tol)) {
      ADD_FAILURE() << label << ": query " << q << " differs (rel_tol="
                    << rel_tol << ", " << got[q].data.size() << " vs "
                    << want[q].data.size() << " entries):\n"
                    << DescribeResultDiff(got[q], want[q], rel_tol);
    }
  }
}

/// Request shorthand for the delta suites: a refresh of `base` (which must
/// outlive the call) to the current epoch.
inline ExecRequest DeltaRequest(const BatchResult& base,
                                ParamPack params = {}) {
  ExecRequest request(std::move(params));
  request.delta_base = &base;
  return request;
}

}  // namespace testing
}  // namespace lmfao

#endif  // LMFAO_TESTS_DIFFERENTIAL_HARNESS_H_
