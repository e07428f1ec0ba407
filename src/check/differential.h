// Differential execution of one scenario across policies and worker counts.
//
// RunDifferential parses a scenario spec (normally one from
// src/check/generator.h), forces the invariant checker on for every job, and
// executes the whole grid several times — once on a single campaign worker,
// once on a parallel campaign pool, and — when the grid has a plain-Nest
// variant — once with those jobs flipped to the model-less nest_predict
// policy. It then cross-checks:
//
//   * determinism — the same seed must give the same golden record
//     (src/scenario/baseline.h: every member BaselineJobRecord writes, wall
//     time left out) regardless of campaign worker count, compared by the
//     golden gate's own CompareJobRecords;
//   * job health — invariant violations, unexpected failures, and timeouts
//     all surface as problems;
//   * predictor fallback — every kNest job re-runs flipped to kNestPredict
//     with no model loaded, whose records must equal plain Nest's under the
//     same comparator (docs/PREDICTION.md §3);
//   * task accounting — the same workload row creates the same number of
//     tasks under every scheduler variant (when no run hit its time limit);
//   * full-load neutrality — for saturating workloads, CFS and Nest
//     makespans must sit within a band of each other (paper §5.2: under
//     full load Nest neither helps nor hurts).
//
// tools/nestsim_fuzz drives this in a loop; the shrinker
// (src/check/shrink.h) uses it as the "does it still fail?" oracle.

#ifndef NESTSIM_SRC_CHECK_DIFFERENTIAL_H_
#define NESTSIM_SRC_CHECK_DIFFERENTIAL_H_

#include <functional>
#include <string>
#include <vector>

#include "src/check/generator.h"
#include "src/core/experiment.h"
#include "src/obs/json_check.h"

namespace nestsim {

struct DifferentialOptions {
  // Worker counts for the two passes. Unequal counts make the determinism
  // cross-check meaningful: results must not depend on execution order.
  int serial_jobs = 1;
  int parallel_jobs = 4;

  // Full-load CFS-vs-Nest tolerance: makespan ratios must stay within
  // [1 / (1 + band), 1 + band]. Only applied when the caller says the
  // scenario saturates the machine.
  double neutrality_band = 0.35;

  // Test hook: applied to every job config after expansion (after the
  // invariant checker is forced on). The mutation self-tests use it to
  // inject kernel faults; production callers leave it unset.
  std::function<void(ExperimentConfig*)> mutate_config;
};

struct DifferentialReport {
  std::vector<std::string> problems;
  size_t jobs = 0;  // grid size actually executed (one pass)

  bool ok() const { return problems.empty(); }
  // All problems, newline-joined.
  std::string Join() const;
};

// `full_load` enables the neutrality check (see GeneratedScenario::full_load).
DifferentialReport RunDifferential(const JsonValue& spec, bool full_load,
                                   const DifferentialOptions& options = DifferentialOptions());

inline DifferentialReport RunDifferential(
    const GeneratedScenario& generated,
    const DifferentialOptions& options = DifferentialOptions()) {
  return RunDifferential(generated.spec, generated.full_load, options);
}

}  // namespace nestsim

#endif  // NESTSIM_SRC_CHECK_DIFFERENTIAL_H_
