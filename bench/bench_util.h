// Shared helpers for the figure/table reproduction benches.
//
// Every bench binary prints a header naming the paper artefact it
// regenerates, then rows in the paper's layout: the baseline is always
// CFS-schedutil and speedups are relative to it (positive = better), with a
// ±5% "noise" band as in the paper's plots. The benches take their
// scheduler/governor columns from the scenario layer
// (StandardScenarioVariants, VariantConfig) and their printers from
// src/scenario/report.h, so the scenario runner prints the same tables. The
// grid benches (fig4/fig5/fig10/fig12/table4) are scenario wrappers, run by
// the campaign worker pool (NESTSIM_JOBS workers, NESTSIM_JSONL sink).

#ifndef NESTSIM_BENCH_BENCH_UTIL_H_
#define NESTSIM_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/campaign/campaign.h"
#include "src/core/experiment.h"
#include "src/metrics/stats.h"
#include "src/scenario/report.h"
#include "src/scenario/scenario.h"

namespace nestsim {

// How many seeded repetitions benches run. The paper uses 10 (30 for power);
// 2 keeps the full suite fast while still exposing run-to-run variance.
// NESTSIM_REPS overrides it through RepetitionsFromEnv, as it does for the
// scenario wrappers.
inline constexpr int kBenchRepetitions = 2;

}  // namespace nestsim

#endif  // NESTSIM_BENCH_BENCH_UTIL_H_
