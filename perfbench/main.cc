/// \file main.cc
/// \brief lmfao_perfbench: runs one benchmark workload and prints its
/// metrics. perfbench/run.py builds this binary and selects the metrics
/// BENCHMARK.json names; the binary itself prints every metric it measured,
/// one "METRIC name value unit" line each, then a final RESULT line.
///
/// Usage: lmfao_perfbench --workload <name> --seed <n> --seconds <s>
///                        --trace <0|1> [--trace-out <path>]

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "storage/view_store.h"
#include "workloads.h"

namespace {

using perfbench::Config;
using perfbench::Report;

int Usage() {
  std::fprintf(stderr,
               "usage: lmfao_perfbench --workload "
               "<retailer-linreg|retailer-cart|favorita-serve-append> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || config.seconds <= 0.0) return Usage();

  // glibc gives threads their own malloc arenas on first contention, and
  // which threads end up sharing one varies from run to run; with the
  // default limit peak RSS of the same run spread 127-176 MiB. Two arenas
  // make peak RSS repeat while the 4-thread engine keeps its speed.
  mallopt(M_ARENA_MAX, 2);

  perfbench::Tracer tracer(config.trace);
  perfbench::Tracer* traced = config.trace ? &tracer : nullptr;
  const size_t live_before = lmfao::ViewStore::GlobalLiveBytes();
  Report report;
  if (config.workload == "retailer-linreg") {
    report = perfbench::RunRetailerLinreg(config, traced);
  } else if (config.workload == "retailer-cart") {
    report = perfbench::RunRetailerCart(config, traced);
  } else if (config.workload == "favorita-serve-append") {
    report = perfbench::RunFavoritaServe(config, traced);
  } else {
    return Usage();
  }

  // Leak guard: every engine, server and result of the workload is gone,
  // so the process-wide view accounting must be back where it started.
  const size_t live_after = lmfao::ViewStore::GlobalLiveBytes();
  report.Set("storage.live_view_bytes_end", static_cast<double>(live_after),
             "bytes");
  if (live_after != live_before) {
    report.Fail("ViewStore live bytes " + std::to_string(live_before) +
                " before the workload, " + std::to_string(live_after) +
                " after");
  }

  if (config.trace) {
    const std::vector<perfbench::Span> spans = tracer.spans();
    size_t ops = 0;
    for (const perfbench::Span& s : spans) {
      if (s.trace == s.id) ++ops;
    }
    for (const auto& [layer, seconds] : perfbench::SelfSecondsByLayer(spans)) {
      report.Set("self_ms." + layer,
                 ops > 0 ? seconds * 1e3 / static_cast<double>(ops) : 0.0,
                 "ms");
    }
    if (!config.trace_out.empty() &&
        !perfbench::WriteChromeTrace(spans, config.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", config.trace_out.c_str());
      return 1;
    }
  }

  for (const std::string& note : report.notes) {
    std::printf("NOTE %s\n", note.c_str());
  }
  for (const perfbench::Metric& m : report.metrics) {
    std::printf("METRIC %s %.17g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("RESULT %s %lld %lld\n", report.correct ? "correct" : "wrong",
              static_cast<long long>(report.tally.attempted),
              static_cast<long long>(report.tally.failed()));
  return report.correct ? 0 : 1;
}
