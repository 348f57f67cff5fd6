#include <cmath>
#include <sstream>

#include "workloads.h"

namespace perfbench {

using namespace lmfao;

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back(Metric{name, value, unit});
}

void Report::Fail(const std::string& why) {
  correct = false;
  notes.push_back("MISMATCH: " + why);
}

EngineOptions BenchEngineOptions(int num_threads) {
  EngineOptions options;
  options.scheduler.num_threads = num_threads;
  options.jit.mode = JitMode::kOff;
  return options;
}

std::unique_ptr<RetailerData> MakeRetailerInstance(int64_t num_inventory,
                                                   uint64_t seed) {
  RetailerOptions options;
  options.num_inventory = num_inventory;
  options.num_locations = 100;
  options.num_dates = 200;
  options.num_items = 2000;
  options.num_zips = 50;
  options.seed = seed;
  auto data = MakeRetailer(options);
  LMFAO_CHECK(data.ok()) << data.status().ToString();
  return std::move(data).value();
}

FeatureSet RetailerFeatures(const RetailerData& db) {
  FeatureSet features;
  features.label = db.inventoryunits;
  for (AttrId a : db.continuous) {
    if (a != db.inventoryunits) features.continuous.push_back(a);
  }
  features.categorical = db.categorical;
  return features;
}

bool Close(double a, double b) {
  if (a == b) return true;
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= kRelTol * scale;
}

bool ResultsClose(const std::vector<QueryResult>& a,
                  const std::vector<QueryResult>& b, std::string* why) {
  if (a.size() != b.size()) {
    *why = "result count " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
    return false;
  }
  for (size_t q = 0; q < a.size(); ++q) {
    const ViewMap& x = a[q].data;
    const ViewMap& y = b[q].data;
    if (x.size() != y.size() || x.width() != y.width()) {
      *why = "query " + std::to_string(q) + ": " + std::to_string(x.size()) +
             " vs " + std::to_string(y.size()) + " keys";
      return false;
    }
    bool ok = true;
    x.ForEach([&](const TupleKey& key, const double* px) {
      if (!ok) return;
      const double* py = y.Lookup(key);
      if (py == nullptr) {
        ok = false;
        *why = "query " + std::to_string(q) + ": key missing";
        return;
      }
      for (int c = 0; c < x.width(); ++c) {
        if (!Close(px[c], py[c])) {
          ok = false;
          std::ostringstream msg;
          msg.precision(17);
          msg << "query " << q << " slot " << c << ": " << px[c] << " vs "
              << py[c];
          *why = msg.str();
          return;
        }
      }
    });
    if (!ok) return false;
  }
  return true;
}

void ExecuteSamples::Add(double wall_s, double cpu_s, int threads,
                         const ExecutionStats& stats) {
  execute_ms.push_back(wall_s * 1e3);
  cpu_util.push_back(cpu_s / (wall_s * threads));
  double wait_s = 0.0;
  for (const GroupStats& g : stats.groups) wait_s += g.wait_seconds;
  wait_ms.push_back(wait_s * 1e3);
  peak_view_bytes = std::max(peak_view_bytes, stats.peak_view_bytes);
  last = stats;
}

void ExecuteSamples::ReportTo(Report* report) const {
  report->Set("engine.execute_ms", Median(execute_ms), "ms");
  report->Set("engine.execute_cpu_util", Median(cpu_util), "ratio");
  report->Set("engine.group_wait_ms", Median(wait_ms), "ms");
  report->Set("engine.groups_jit", last.groups_jit, "count");
  report->Set("engine.groups_simd", last.groups_simd, "count");
  report->Set("engine.groups_interp", last.groups_interp, "count");
  report->Set("storage.peak_view_mib",
              static_cast<double>(peak_view_bytes) / (1024.0 * 1024.0), "MiB");
}

void ReportPlanCacheHitRatio(const Engine::PlanCacheStats& before,
                             const Engine::PlanCacheStats& after,
                             Report* report) {
  const size_t hits = after.hits - before.hits;
  const size_t lookups = hits + after.misses - before.misses;
  report->Set("engine.plan_cache_hit_ratio",
              lookups > 0 ? static_cast<double>(hits) /
                                static_cast<double>(lookups)
                          : 0.0,
              "ratio");
}

ClosedLoopResult RunClosedLoop(double seconds, Tracer* tracer,
                               const std::function<Outcome(Tracer*)>& op,
                               const std::function<bool()>& check) {
  ClosedLoopResult loop;
  const double start = NowSeconds();
  for (int64_t i = 0; NowSeconds() - start < seconds; ++i) {
    const bool traced = tracer != nullptr && i % 2 == 0;
    const double t0 = NowSeconds();
    Outcome outcome = op(traced ? tracer : nullptr);
    const double ms = (NowSeconds() - t0) * 1e3;
    if (outcome == Outcome::kOk && !check()) outcome = Outcome::kWrong;
    loop.tally.Add(outcome);
    loop.latency_ms.push_back(ms);
    if (tracer != nullptr) (traced ? loop.traced_ms : loop.untraced_ms).push_back(ms);
  }
  loop.wall_s = NowSeconds() - start;
  return loop;
}

void ReportClosedLoop(const ClosedLoopResult& loop, Report* report) {
  const TailStat tail = TailPercentile(loop.latency_ms);
  const double ops_per_s = static_cast<double>(loop.tally.ok) / loop.wall_s;
  report->tally = loop.tally;
  report->Set("op_p50_ms", Median(loop.latency_ms), "ms");
  report->Set("op_tail_ms", tail.value, "ms");
  report->Set("ops_per_s", ops_per_s, "1/s");
  report->Set("ok_frac", loop.tally.ok_frac(), "ratio");
  // One closed-loop client saturates at its own completion rate.
  report->Set("max_rate_qps", ops_per_s, "1/s");
  std::ostringstream note;
  note << "op_tail_ms is p" << tail.percentile << " of " << tail.samples
       << " ops (" << tail.beyond << " beyond)";
  report->Note(note.str());
  if (!loop.traced_ms.empty() && !loop.untraced_ms.empty()) {
    const double untraced = Median(loop.untraced_ms);
    report->Set("trace.overhead_pct",
                100.0 * (Median(loop.traced_ms) - untraced) / untraced, "pct");
  }
}

void SetupTimes::Add(double start, double prepared, double end,
                     const ExecutionStats& first) {
  total_s.push_back(end - start);
  prepare_ms.push_back((prepared - start) * 1e3);
  first_execute_ms.push_back((end - prepared) * 1e3);
  viewgen_ms.push_back(first.viewgen_seconds * 1e3);
  grouping_ms.push_back(first.grouping_seconds * 1e3);
  plan_ms.push_back(first.plan_seconds * 1e3);
}

void SetupTimes::ReportTo(Report* report) const {
  report->Set("setup_s", Median(total_s), "s");
  report->Set("engine.prepare_cold_ms", Median(prepare_ms), "ms");
  report->Set("engine.compile.viewgen_ms", Median(viewgen_ms), "ms");
  report->Set("engine.compile.grouping_ms", Median(grouping_ms), "ms");
  report->Set("engine.compile.plan_ms", Median(plan_ms), "ms");
  report->Set("engine.first_execute_ms", Median(first_execute_ms), "ms");
  std::ostringstream note;
  note << "set-up repetitions (s):";
  for (double s : total_s) note << " " << s;
  report->Note(note.str());
}

}  // namespace perfbench
