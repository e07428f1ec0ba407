// Golden-baseline regression gate for scenarios.
//
// BaselineJobRecord is the one definition of a job's deterministic outcome:
// its identity and status, then one object per run (seed, makespan_ns,
// energy, underload, context switches, migrations, tasks created, the
// counter digest, and the latency, cluster and resilience members when the
// run has them). RecordBaseline writes those records under a header line,
// one JSONL file per scenario. CheckBaseline re-runs the scenario, renders
// each job the same way and holds it to its golden record with
// CompareJobRecords, which walks the two records member by member: a member
// the writer emits is compared without any other edit. The fuzz
// differential (src/check/differential.h) holds its passes to each other
// with the same comparator. The verdict serialises to BENCH_scenarios.json
// for CI.

#ifndef NESTSIM_SRC_SCENARIO_BASELINE_H_
#define NESTSIM_SRC_SCENARIO_BASELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/json_check.h"
#include "src/obs/sched_counters.h"
#include "src/scenario/runner.h"

namespace nestsim {

// FNV-1a 64-bit over `text`; the digest that compresses a SchedCounters JSON
// record into one comparable token.
uint64_t Fnv1a64(const std::string& text);

// 16-hex-digit digest of SchedCountersJson(counters).
std::string SchedCountersDigest(const SchedCounters& counters);

// "<dir>/<scenario-name>.jsonl".
std::string BaselinePath(const std::string& dir, const std::string& scenario_name);

// One executed job's record: the line BaselineJsonl writes for it.
std::string BaselineJobRecord(const Job& job, const JobOutcome& outcome);

// Compares a fresh job record with a golden one, member by member, and
// appends one problem per difference, each prefixed "<machine> x <row> x
// <variant>: " from the fresh record:
//   * numbers compare by their %.17g text, strings and booleans exactly,
//     arrays item by item and objects member by member;
//   * `wall_s` is host time and compares only within the relative band
//     `wall_tolerance` (0 leaves it out);
//   * a job whose status is not "ok" on either side compares by its
//     identity (machine, row, variant) and status alone;
//   * a key present on one side only is a problem.
void CompareJobRecords(const JsonValue& golden, const JsonValue& fresh, double wall_tolerance,
                       std::vector<std::string>* problems);

// Serialises one executed run as baseline JSONL (header + one line per job).
std::string BaselineJsonl(const ScenarioRun& run);

// Writes BaselineJsonl(run) to BaselinePath(dir, ...), replacing any previous
// golden. Returns false with `error` set when the file cannot be written
// (missing directory, permissions).
bool RecordBaseline(const ScenarioRun& run, const std::string& dir, std::string* error);

// One scenario's comparison outcome.
struct BaselineCheck {
  std::string scenario;
  std::string baseline_path;
  int jobs = 0;        // jobs in the fresh run
  int compared = 0;    // jobs matched against a golden record
  std::vector<std::string> problems;  // empty = pass

  bool ok() const { return problems.empty(); }
};

// Compares `run` (already executed) against the recorded golden: the header's
// job count, base_seed and repetitions, then every job's record through
// CompareJobRecords. `wall_tolerance` is a relative band for wall_s (0.25 =
// ±25%); 0 disables the wall-clock check (the default — wall time is machine
// load, not simulation behaviour). All structural and value mismatches are
// reported.
BaselineCheck CheckBaseline(const ScenarioRun& run, const std::string& dir,
                            double wall_tolerance = 0.0);

// {"ok":...,"scenarios":[...]} — the BENCH_scenarios.json payload for a batch
// of checks.
std::string BaselineVerdictJson(const std::vector<BaselineCheck>& checks);

}  // namespace nestsim

#endif  // NESTSIM_SRC_SCENARIO_BASELINE_H_
