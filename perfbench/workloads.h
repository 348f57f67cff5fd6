/// \file workloads.h
/// \brief The three benchmark workloads and what they share: the run
/// configuration, the metric report, dataset construction at the
/// benchmark's fixed scales, result comparison and the closed-loop runner.

#ifndef LMFAO_PERFBENCH_WORKLOADS_H_
#define LMFAO_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "data/retailer.h"
#include "engine/engine.h"
#include "ml/feature.h"
#include "perf_util.h"

namespace perfbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. Metrics are emitted in insertion order;
/// setting a name twice overwrites it.
struct Report {
  bool correct = true;
  Tally tally;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void Set(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& line) { notes.push_back(line); }
  /// Records a correctness mismatch; the run exits non-zero.
  void Fail(const std::string& why);
};

Report RunRetailerLinreg(const Config& config, Tracer* tracer);
Report RunRetailerCart(const Config& config, Tracer* tracer);
Report RunFavoritaServe(const Config& config, Tracer* tracer);

// ---------------------------------------------------------------------------
// Shared helpers (common.cc).

/// Set-up runs kSetupWarmups untimed times first (the process's first
/// executions pay one-off allocator growth that no later set-up sees), then
/// kSetupRepetitions timed times; setup_s is the median of those.
inline constexpr int kSetupWarmups = 1;
inline constexpr int kSetupRepetitions = 9;
/// Relative tolerance of every result comparison.
inline constexpr double kRelTol = 1e-9;

/// Engine options of every workload: JIT pinned off (its multi-second
/// host-compiler run does not fit a run), so an LMFAO_JIT in the
/// environment cannot change what is measured.
lmfao::EngineOptions BenchEngineOptions(int num_threads);

/// Retailer at the bench_common domain sizes, `num_inventory` rows.
std::unique_ptr<lmfao::RetailerData> MakeRetailerInstance(
    int64_t num_inventory, uint64_t seed);

/// The paper's Retailer learning task (label inventoryunits).
lmfao::FeatureSet RetailerFeatures(const lmfao::RetailerData& db);

/// |a - b| <= kRelTol * max(1, |a|, |b|).
bool Close(double a, double b);

/// Compares two result vectors key by key; on mismatch fills `why`.
bool ResultsClose(const std::vector<lmfao::QueryResult>& a,
                  const std::vector<lmfao::QueryResult>& b, std::string* why);

/// Samples of the timed loop's PreparedBatch::Execute calls.
struct ExecuteSamples {
  std::vector<double> execute_ms;
  std::vector<double> cpu_util;
  std::vector<double> wait_ms;
  size_t peak_view_bytes = 0;
  lmfao::ExecutionStats last;

  /// One Execute: its wall and process-CPU seconds, the engine's thread
  /// count, and the stats it returned.
  void Add(double wall_s, double cpu_s, int threads,
           const lmfao::ExecutionStats& stats);
  /// Sets engine.execute_ms, engine.execute_cpu_util, engine.group_wait_ms,
  /// engine.groups_* and storage.peak_view_mib.
  void ReportTo(Report* report) const;
};

/// Sets engine.plan_cache_hit_ratio: hits / lookups between two readings
/// of the plan-cache counters (0 when there was no lookup).
void ReportPlanCacheHitRatio(const lmfao::Engine::PlanCacheStats& before,
                             const lmfao::Engine::PlanCacheStats& after,
                             Report* report);

/// Closed loop, one client: calls `op` back to back for `seconds`. `op`
/// receives the tracer for traced ops and null otherwise (in a traced run
/// every other op is untraced, which gives trace.overhead_pct) and
/// returns the op's outcome; `check` then runs outside the timed interval
/// and may turn an OK op into a wrong one.
struct ClosedLoopResult {
  Tally tally;
  std::vector<double> latency_ms;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  double wall_s = 0.0;
};
ClosedLoopResult RunClosedLoop(double seconds, Tracer* tracer,
                               const std::function<Outcome(Tracer*)>& op,
                               const std::function<bool()>& check);

/// Sets the closed-loop end-to-end metrics (op_p50_ms, op_tail_ms,
/// ops_per_s, ok_frac, max_rate_qps) and trace.overhead_pct.
void ReportClosedLoop(const ClosedLoopResult& loop, Report* report);

/// The set-up repetitions' timings.
struct SetupTimes {
  std::vector<double> total_s;
  std::vector<double> prepare_ms;
  std::vector<double> first_execute_ms;
  std::vector<double> viewgen_ms;
  std::vector<double> grouping_ms;
  std::vector<double> plan_ms;

  /// Records one repetition from its Prepare/first-Execute boundaries and
  /// the first Execute's compile-layer stats.
  void Add(double start, double prepared, double end,
           const lmfao::ExecutionStats& first);
  /// Sets setup_s and the engine.* set-up metrics.
  void ReportTo(Report* report) const;
};

}  // namespace perfbench

#endif  // LMFAO_PERFBENCH_WORKLOADS_H_
