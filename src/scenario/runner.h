// Expands a parsed Scenario into campaign jobs, executes them on the worker
// pool, and prints the paper-style tables.
//
// Expansion order is machine → row → variant → sweep point (innermost), with
// one workload model per (machine, row) shared across variants and sweep
// points — the nested-loop order the paper tables print in, so a sweepless
// scenario's job stream (and its tables and JSONL) is byte-identical to the
// hand-written grid loops it replaced.

#ifndef NESTSIM_SRC_SCENARIO_RUNNER_H_
#define NESTSIM_SRC_SCENARIO_RUNNER_H_

#include <string>
#include <vector>

#include "src/campaign/campaign.h"
#include "src/scenario/scenario.h"

namespace nestsim {

struct ScenarioRunOptions {
  // --reps: replaces the resolved repetition count when > 0. Without it the
  // count is RepetitionsFromEnv(scenario.repetitions) — NESTSIM_REPS wins.
  int repetitions_override = 0;

  // --base-seed: replaces scenario.base_seed.
  bool has_base_seed = false;
  uint64_t base_seed = 1;

  // --timeout: replaces scenario.timeout_s when >= 0.
  double timeout_override_s = -1.0;

  // --parallel: replaces every job's config.parallel.workers when >= 0.
  // Results are byte-identical at any worker count (docs/PARALLEL.md), so
  // this composes with --check-baseline: the same goldens must pass at any
  // setting.
  int parallel_workers = -1;

  // Worker pool / JSONL sink; defaults honour NESTSIM_JOBS and NESTSIM_JSONL.
  CampaignOptions campaign = CampaignOptions::FromEnv();
};

// A fully expanded scenario: the job grid plus (after ExecuteScenario) its
// outcomes, indexed by (machine, row, variant, sweep point).
struct ScenarioRun {
  Scenario scenario;
  int repetitions = 1;
  uint64_t base_seed = 1;
  double timeout_s = 0.0;

  // Human-readable sweep-point labels ("nest.r_max=3,..."); exactly one empty
  // label when the scenario has no sweep.
  std::vector<std::string> sweep_labels;

  // Worker pool / sink settings ExecuteScenario runs with (copied from
  // ScenarioRunOptions at expansion time).
  CampaignOptions campaign_options;

  std::vector<Job> jobs;         // expansion order
  std::vector<JobOutcome> outcomes;  // filled by ExecuteScenario, jobs order

  size_t num_machines() const { return scenario.machines.size(); }
  size_t num_rows() const { return scenario.rows.size(); }
  size_t num_variants() const { return scenario.variants.size(); }
  size_t num_sweeps() const { return sweep_labels.size(); }

  size_t Index(size_t machine, size_t row, size_t variant, size_t sweep = 0) const;
  const Job& job(size_t machine, size_t row, size_t variant, size_t sweep = 0) const;
  const JobOutcome& outcome(size_t machine, size_t row, size_t variant, size_t sweep = 0) const;
  // The aggregated result; throws std::runtime_error when the job timed out
  // or failed — use outcome() where failures are expected.
  const RepeatedResult& result(size_t machine, size_t row, size_t variant,
                               size_t sweep = 0) const;
};

// Builds the job grid (models included). Fails — with every problem reported
// — on rows whose workloads cannot be built or overrides that cannot apply.
bool ExpandScenario(const Scenario& scenario, const ScenarioRunOptions& options, ScenarioRun* run,
                    ScenarioError* err);

// Runs the expanded jobs through a Campaign named scenario.name and stores
// the outcomes.
void ExecuteScenario(ScenarioRun* run);

// Prints the PrintHeader banner for the scenario's title/description (no-op
// for untitled scenarios). Benches print this before running, so the runner
// keeps that order.
void PrintScenarioHeader(const Scenario& scenario);

// Prints the per-machine tables in the style the scenario's TableSpec asks
// for (Fig. 5/10/12 speedups, Fig. 4 underload, Table 4 bands). Sweeping
// scenarios print one table block per sweep point.
void PrintScenarioTables(const ScenarioRun& run);

// Locates a scenario file for the thin bench wrappers: `name` as given, then
// $NESTSIM_SCENARIO_DIR/<name>, then scenarios/<name>, ../scenarios/<name>
// and ../../scenarios/<name> relative to the working directory (the last for
// tests running from build/tests). Returns `name` unchanged when nothing
// exists (the open error then names the literal path).
std::string ResolveScenarioPath(const std::string& name);

// Load + expand + execute + print; the body of `nestsim_run <file>` and of
// the scenario-backed bench binaries. Returns a process exit code.
int RunScenarioFileMain(const std::string& name, const ScenarioRunOptions& options = {});

}  // namespace nestsim

#endif  // NESTSIM_SRC_SCENARIO_RUNNER_H_
