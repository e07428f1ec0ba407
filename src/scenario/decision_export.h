// Decision-trace export over a whole scenario (tools/nestsim_export).
//
// CollectDecisionTraces expands and executes the scenario exactly like
// nestsim_run — same job grid, same campaign worker pool — with one
// DecisionTrace sink attached per job, so every fork/wake placement decision
// lands as a feature row (src/predict/features.h). Rows are serialized in job
// order with a stream-wide decision index, which makes the output
// byte-identical at any NESTSIM_JOBS worker count (pinned by
// tests/predict/export_invariance_test.cc).

#ifndef NESTSIM_SRC_SCENARIO_DECISION_EXPORT_H_
#define NESTSIM_SRC_SCENARIO_DECISION_EXPORT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/predict/decision_trace.h"
#include "src/predict/features.h"
#include "src/scenario/runner.h"

namespace nestsim {

// The executed scenario's traces, one per job in expansion order.
struct DecisionExportResult {
  // Widest machine across the grid; CSV per-core blocks are padded to this so
  // multi-machine exports stay rectangular.
  int num_cpus = 0;

  std::vector<DecisionLabels> labels;                  // parallel to traces
  std::vector<std::shared_ptr<DecisionTrace>> traces;  // job order
};

// Expands `scenario`, attaches one decision-trace sink per job, and runs the
// campaign. Fails on cluster scenarios (a fleet's machines cannot share one
// trace sink) and on any job that times out or throws. Campaign progress/JSONL options come from `options` unchanged.
bool CollectDecisionTraces(const Scenario& scenario, const ScenarioRunOptions& options,
                           DecisionExportResult* out, ScenarioError* err);

// All rows in export order (job-major, then seed/time order within the job);
// the training input for TrainTableModel.
std::vector<DecisionRow> FlattenDecisions(const DecisionExportResult& result);

// The full export stream: CSV (header + one line per row) or JSONL (one
// object per row). Deterministic for a deterministic scenario.
std::string SerializeDecisions(const DecisionExportResult& result, bool jsonl);

}  // namespace nestsim

#endif  // NESTSIM_SRC_SCENARIO_DECISION_EXPORT_H_
