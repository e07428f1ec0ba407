// The experiment runner: the library's main entry point.
//
// An ExperimentConfig names a machine, a scheduler (+ parameters), and a
// governor; RunExperiment builds the machine's stack (a MachineModel:
// hardware → policy → governor → kernel, plus its observers) on a one-domain
// DomainGroup, runs a Workload to completion, and returns the paper's
// metrics: makespan, CPU energy, underload per second, frequency residency,
// and optional traces. RunRepeated drives several seeds and aggregates. The
// fleet driver (src/cluster/) runs N of the same stacks, so one machine and
// a fleet measure alike.

#ifndef NESTSIM_SRC_CORE_EXPERIMENT_H_
#define NESTSIM_SRC_CORE_EXPERIMENT_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/workload.h"
#include "src/fault/fault.h"
#include "src/governors/governors.h"
#include "src/kernel/kernel.h"
#include "src/metrics/freq_hist.h"
#include "src/metrics/trace.h"
#include "src/nest/nest_budget_policy.h"
#include "src/nest/nest_cache_policy.h"
#include "src/nest/nest_oracle_policy.h"
#include "src/nest/nest_policy.h"
#include "src/nest/nest_predict_policy.h"
#include "src/obs/sched_counters.h"
#include "src/predict/decision_trace.h"
#include "src/predict/model.h"
#include "src/predict/oracle.h"
#include "src/smove/smove_policy.h"

namespace nestsim {

enum class SchedulerKind { kCfs, kNest, kSmove, kNestCache, kNestBudget, kNestPredict, kNestOracle };

const char* SchedulerKindName(SchedulerKind kind);

// Lowercase policy key used by spec files and registries ("cfs" / "nest" /
// "smove" / "nest_cache" / "nest_budget"); the inverse of
// SchedulerKindFromKey.
const char* SchedulerKindKey(SchedulerKind kind);

// Non-aborting lookup by lowercase key; false on unknown names.
bool SchedulerKindFromKey(const std::string& key, SchedulerKind* out);

// Every policy key, in enum order.
std::vector<std::string> SchedulerKindKeys();

struct ExperimentConfig {
  std::string machine = "intel-5218-2s";
  SchedulerKind scheduler = SchedulerKind::kCfs;
  std::string governor = "schedutil";

  NestParams nest;          // used when scheduler == kNest or kNestCache
  SmovePolicy::Params smove;  // used when scheduler == kSmove
  // Cache-aware Nest extras, used when scheduler == kNestCache; the cache
  // model itself (warm speedup, migration cost) lives in kernel.cache and
  // applies to every scheduler.
  NestCacheParams nest_cache;
  // Budget-aware Nest extras, used when scheduler == kNestBudget.
  NestBudgetParams nest_budget;
  Kernel::Params kernel;

  // Fault injection & replication (src/fault/) and the per-socket energy
  // budget (src/governors/). Both default off; a disabled spec draws no
  // randomness and attaches no observer, so pre-fault goldens are unchanged.
  FaultSpec fault;
  PowerParams power;

  // Prediction subsystem (src/predict/, docs/PREDICTION.md). Everything
  // defaults off/null: a config that never touches this block runs exactly
  // as before, keeping every pre-predict golden byte-identical.
  struct PredictParams {
    // Table model for scheduler == kNestPredict; null (or empty) falls back
    // bit-identically to plain Nest.
    std::shared_ptr<const TableModel> model;

    // nest_oracle recording window and extra warm cores per window.
    double oracle_window_ms = 5.0;
    int oracle_margin = 0;

    // Replay plan for scheduler == kNestOracle. Normally left null — the
    // RunExperiment two-pass protocol records one per seed automatically.
    // Set it (e.g. from a test) to skip the recording pass.
    std::shared_ptr<const OraclePlan> oracle_plan;

    // Recording sink: when set, the machine stack attaches an OracleRecorder
    // filling this plan. Internal to the two-pass protocol; a multi-machine
    // cluster rejects it, as it does decision_trace.
    std::shared_ptr<OraclePlan> oracle_record_plan;

    // When set, the machine stack attaches a DecisionTraceRecorder appending
    // one feature row per placement decision (tools/nestsim_export).
    std::shared_ptr<DecisionTrace> decision_trace;
  };
  PredictParams predict;

  uint64_t seed = 1;
  // Hard wall for runaway workloads; the run normally ends when every task
  // has exited.
  SimDuration time_limit = 600 * kSecond;

  bool record_trace = false;
  bool record_underload_series = false;
  bool record_latency = false;

  // Attach the invariant checker (src/check/) and fail the run — with a
  // std::runtime_error naming every violation — if any invariant breaks.
  // NESTSIM_CHECK_INVARIANTS=1 forces this on for every run (the test suite
  // sets it), =0 forces it off; unset defers to this flag. Checking is purely
  // observational: results are bit-identical with it on or off.
  bool check_invariants = false;

  // Perfetto capture (docs/OBSERVABILITY.md): when trace_dir is non-empty —
  // or the NESTSIM_TRACE environment variable names a directory — each run
  // writes a chrome trace-event JSON file into it. The filename stem is
  // trace_label when set, otherwise "<machine>-<scheduler>-<governor>"; the
  // seed is appended. Attaching the writer never changes simulation
  // behaviour.
  std::string trace_dir;
  std::string trace_label;

  // Cooperative wall-clock cancellation: when set, the event loop polls this
  // every few thousand events and abandons the run once it returns true,
  // marking the result `aborted`. The campaign runner uses it to enforce
  // per-job wall-clock timeouts without killing threads.
  std::function<bool()> should_abort;

  // Convenience label, e.g. "Nest sched".
  std::string Label() const;
};

// Per-machine slice of a cluster run (src/cluster/). Plain data so results
// stay copyable across the campaign worker pool.
struct ClusterMachineStats {
  uint64_t requests_routed = 0;   // parts the router sent to this machine
  double utilisation = 0.0;       // busy-cpu-time / (cpus * horizon)
  double underload_per_s = 0.0;
};

// Cluster-level serving metrics. num_machines == 0 means "not a cluster run"
// and every consumer (tables, baselines, JSONL) skips the block entirely, so
// single-machine results and their golden digests are untouched.
struct ClusterStats {
  int num_machines = 0;
  std::string router;

  uint64_t requests_offered = 0;    // arrivals scheduled (parent requests)
  uint64_t requests_completed = 0;  // all parts exited before the horizon

  // End-to-end request latency (arrival to last-part exit), milliseconds.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double mean_ms = 0.0;
  double max_ms = 0.0;

  // Queueing-vs-service breakdown, means across completed parts: wait is
  // arrival to first run, service is first run to exit.
  double mean_queue_ms = 0.0;
  double mean_service_ms = 0.0;

  std::vector<ClusterMachineStats> machines;
};

struct ExperimentResult {
  SimDuration makespan = 0;       // last task exit (all tags)
  double energy_joules = 0.0;     // CPU energy over the run
  double underload_per_s = 0.0;
  FreqHistogram freq_hist;
  std::vector<int> cpus_used;

  uint64_t context_switches = 0;
  uint64_t migrations = 0;
  // Engine events fired over the run; perfbench sums it into `sim.events`.
  // Not part of golden baselines.
  uint64_t events_fired = 0;
  int tasks_created = 0;
  bool hit_time_limit = false;
  bool aborted = false;  // should_abort fired; metrics cover the partial run

  // Per-tag completion times (multi-application runs).
  std::map<int, SimDuration> tag_makespan;

  // Scheduler decision counters (src/obs/); always populated.
  SchedCounters counters;

  // Path of the Perfetto trace written for this run ("" when tracing is off
  // or the write failed).
  std::string trace_file;

  // Only populated when the corresponding record_* flag was set.
  std::vector<std::pair<double, double>> underload_series;
  std::vector<ExecSegment> trace;
  double p99_wakeup_latency_us = 0.0;
  double p50_wakeup_latency_us = 0.0;

  // Smove-only: how often its parking heuristic armed / its fallback timer
  // actually moved the task.
  int64_t smove_moves_armed = 0;
  int64_t smove_moves_fired = 0;

  // Cluster-only (src/cluster/): populated when num_machines > 0.
  ClusterStats cluster;

  // Fault/replica resilience metrics (src/fault/): populated only when
  // config.fault.any(); resilience.any() gates every JSON/baseline block.
  ResilienceStats resilience;

  double seconds() const { return ToSeconds(makespan); }

  // Energy-delay product, J·s — the figure of merit for the energy-budget
  // sweeps (lower is better on both axes).
  double edp() const { return energy_joules * seconds(); }
};

// Runs one seeded simulation of `workload` under `config`.
ExperimentResult RunExperiment(const ExperimentConfig& config, const Workload& workload);

// Builds the policy instance the config names; MachineModel's constructor
// (src/core/machine_model.h) is its caller in both experiment drivers.
std::unique_ptr<SchedulerPolicy> MakeSchedulerPolicy(const ExperimentConfig& config);

// The config flag, overridable either way by NESTSIM_CHECK_INVARIANTS
// ("1"/"0"); the test suite exports =1 so every test runs checked.
bool CheckInvariantsEnabled(const ExperimentConfig& config);

struct RepeatedResult {
  std::vector<ExperimentResult> runs;
  double mean_seconds = 0.0;
  double stddev_seconds = 0.0;
  double mean_energy_j = 0.0;
  double mean_underload_per_s = 0.0;
  FreqHistogram mean_freq_hist;  // seconds summed across runs

  double stddev_pct() const {
    return mean_seconds > 0 ? 100.0 * stddev_seconds / mean_seconds : 0.0;
  }
};

// Aggregates already-collected per-seed runs into the summary benches print.
// RunRepeated and the campaign runner share this so a pooled campaign
// produces bitwise-identical tables to a serial loop.
RepeatedResult AggregateRuns(std::vector<ExperimentResult> runs);

// Runs `repetitions` seeds (base_seed, base_seed+1, ...) and aggregates.
RepeatedResult RunRepeated(const ExperimentConfig& config, const Workload& workload,
                           int repetitions, uint64_t base_seed = 1);

}  // namespace nestsim

#endif  // NESTSIM_SRC_CORE_EXPERIMENT_H_
