// Shared helpers for the figure/table reproduction benches.
//
// Every bench binary prints a header naming the paper artefact it
// regenerates, then rows in the paper's layout: the baseline is always
// CFS-schedutil and speedups are relative to it (positive = better), with a
// ±5% "noise" band as in the paper's plots.

#ifndef NESTSIM_BENCH_BENCH_UTIL_H_
#define NESTSIM_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/metrics/stats.h"
#include "src/scenario/report.h"

namespace nestsim {

// A scheduler/governor column of the paper's tables, e.g. "Nest sched". The
// grid benches (fig4/fig5/fig10/fig12/table4) are scenario wrappers instead,
// run by the campaign worker pool (NESTSIM_JOBS workers, NESTSIM_JSONL sink).
struct Variant {
  std::string label;
  SchedulerKind scheduler;
  std::string governor;
};

// The paper's standard comparison set (Figure 5 adds Smove).
inline std::vector<Variant> StandardVariants(bool include_smove = false) {
  std::vector<Variant> variants = {
      {"CFS sched", SchedulerKind::kCfs, "schedutil"},
      {"CFS perf", SchedulerKind::kCfs, "performance"},
      {"Nest sched", SchedulerKind::kNest, "schedutil"},
      {"Nest perf", SchedulerKind::kNest, "performance"},
  };
  if (include_smove) {
    variants.push_back({"Smove sched", SchedulerKind::kSmove, "schedutil"});
  }
  return variants;
}

inline ExperimentConfig ConfigFor(const std::string& machine, const Variant& variant) {
  ExperimentConfig config;
  config.machine = machine;
  config.scheduler = variant.scheduler;
  config.governor = variant.governor;
  return config;
}

// How many seeded repetitions benches run. The paper uses 10 (30 for power);
// 2 keeps the full suite fast while still exposing run-to-run variance.
// NESTSIM_REPS overrides the fallback uniformly across every bench (via
// RepetitionsFromEnv in src/campaign/), the scenario wrappers included.
int BenchRepetitions(int fallback = 2);

// The pretty-printers (PrintHeader, PrintMachineBanner, FormatSpeedup) moved
// to src/scenario/report.h so the scenario runner prints byte-identical
// tables; they keep their old names in the nestsim namespace.

}  // namespace nestsim

#endif  // NESTSIM_BENCH_BENCH_UTIL_H_
