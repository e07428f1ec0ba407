#include "src/check/differential.h"

#include <gtest/gtest.h>

#include "src/obs/json_check.h"
#include "src/scenario/runner.h"

namespace nestsim {
namespace {

JsonValue ParseSpec(const std::string& text) {
  JsonValue spec;
  std::string error;
  EXPECT_TRUE(JsonParse(text, &spec, &error)) << error;
  return spec;
}

// A small wakeup-heavy scenario: hackbench drives enough enqueues that a
// dispatch fault trips quickly, and the three variants exercise every policy.
JsonValue HackbenchSpecJson() {
  return ParseSpec(R"({
    "name": "diff-hackbench",
    "machines": ["amd-4650g-1s"],
    "variants": [
      {"label": "cfs", "scheduler": "cfs", "governor": "schedutil"},
      {"label": "nest", "scheduler": "nest", "governor": "schedutil"},
      {"label": "smove", "scheduler": "smove", "governor": "schedutil"}
    ],
    "workload": {"family": "hackbench", "params": {"groups": 2, "fan": 2, "loops": 8}},
    "repetitions": 1,
    "base_seed": 11,
    "config": {"time_limit_s": 20},
    "table": {"style": "none"}
  })");
}

TEST(DifferentialTest, CleanScenarioPassesAllCrossChecks) {
  const DifferentialReport report = RunDifferential(HackbenchSpecJson(), /*full_load=*/false);
  EXPECT_TRUE(report.ok()) << report.Join();
  EXPECT_EQ(report.jobs, 3u);
}

TEST(DifferentialTest, FullLoadNasIsCfsNestNeutral) {
  const JsonValue spec = ParseSpec(R"({
    "name": "diff-nas",
    "machines": ["intel-5220-1s"],
    "variants": [
      {"label": "cfs", "scheduler": "cfs", "governor": "performance"},
      {"label": "nest", "scheduler": "nest", "governor": "performance"}
    ],
    "workload": {"family": "nas",
                 "params": {"threads": 0, "iter_compute_ms": 1.0, "iterations": 10}},
    "repetitions": 1,
    "base_seed": 3,
    "config": {"time_limit_s": 20},
    "table": {"style": "none"}
  })");
  const DifferentialReport report = RunDifferential(spec, /*full_load=*/true);
  EXPECT_TRUE(report.ok()) << report.Join();
}

// Fault injection (docs/FAULTS.md) pre-draws its plan from the run seed, so
// the serial and pooled passes must draw the same plan. The hackbench runs
// last several milliseconds and cores fail at 1000 per second, so faults land
// in every run; the executed grid below shows they do. Only a fleet
// replicates requests, so the fleet case below adds replica quorums.
TEST(DifferentialTest, FaultInjectionStaysDeterministicAcrossWorkerCounts) {
  const JsonValue spec = ParseSpec(R"({
    "name": "diff-faults",
    "machines": ["amd-4650g-1s"],
    "variants": [
      {"label": "cfs", "scheduler": "cfs", "governor": "schedutil"},
      {"label": "nest", "scheduler": "nest", "governor": "schedutil"},
      {"label": "nest_cache", "scheduler": "nest_cache", "governor": "schedutil"}
    ],
    "workload": {"family": "hackbench", "params": {"groups": 2, "fan": 2, "loops": 512}},
    "repetitions": 2,
    "base_seed": 17,
    "config": {
      "time_limit_s": 20,
      "fault.core_fail_rate_per_s": 1000.0,
      "fault.core_downtime_ms": 2.0
    },
    "table": {"style": "none"}
  })");
  Scenario scenario;
  ScenarioError err;
  ASSERT_TRUE(ParseScenario(spec, "diff-faults", &scenario, &err)) << err.Join();
  ScenarioRunOptions options;
  options.campaign.jobs = 1;
  options.campaign.progress = false;
  options.campaign.jsonl_path.clear();
  ScenarioRun run;
  ASSERT_TRUE(ExpandScenario(scenario, options, &run, &err)) << err.Join();
  ExecuteScenario(&run);
  for (const JobOutcome& outcome : run.outcomes) {
    ASSERT_TRUE(outcome.ok()) << outcome.message;
    for (const ExperimentResult& r : outcome.result.runs) {
      EXPECT_GT(r.counters.faults_injected, 0u);
    }
  }

  const DifferentialReport report = RunDifferential(spec, /*full_load=*/false);
  EXPECT_TRUE(report.ok()) << report.Join();
  EXPECT_EQ(report.jobs, 3u);
}

// A `requests` fleet with replicas and core failures: cores go offline,
// replica quorums join and losers are reaped, so the record comparison covers
// replicas_reaped and wasted_replica_ms across worker counts.
JsonValue ReplicatedFleetSpecJson() {
  return ParseSpec(R"({
    "name": "diff-replicas",
    "machines": ["amd-4650g-1s"],
    "variants": [
      {"label": "cfs", "scheduler": "cfs", "governor": "schedutil"},
      {"label": "nest", "scheduler": "nest", "governor": "schedutil"}
    ],
    "workload": {"family": "requests",
                 "params": {"rate_per_s": 2000, "arrivals": "poisson", "duration_s": 0.05,
                            "service_ms": 1.0}},
    "cluster": {"machines": 2, "router": "least-loaded"},
    "repetitions": 2,
    "base_seed": 23,
    "config": {
      "time_limit_s": 20,
      "fault.core_fail_rate_per_s": 100.0,
      "fault.core_downtime_ms": 10.0,
      "replicas": 2,
      "fault.quorum": 1
    },
    "table": {"style": "none"}
  })");
}

TEST(DifferentialTest, ReplicatedFleetStaysDeterministicAcrossWorkerCounts) {
  const JsonValue spec = ReplicatedFleetSpecJson();
  Scenario scenario;
  ScenarioError err;
  ASSERT_TRUE(ParseScenario(spec, "diff-replicas", &scenario, &err)) << err.Join();
  ScenarioRunOptions options;
  options.campaign.jobs = 1;
  options.campaign.progress = false;
  options.campaign.jsonl_path.clear();
  ScenarioRun run;
  ASSERT_TRUE(ExpandScenario(scenario, options, &run, &err)) << err.Join();
  ExecuteScenario(&run);
  ASSERT_TRUE(run.outcomes[0].ok()) << run.outcomes[0].message;
  const ExperimentResult& first = run.outcomes[0].result.runs[0];
  EXPECT_GT(first.counters.faults_injected, 0u);
  EXPECT_GT(first.counters.replica_quorum_joins, 0u);
  EXPECT_GT(first.resilience.replicas_reaped, 0u);

  const DifferentialReport report = RunDifferential(spec, /*full_load=*/false);
  EXPECT_TRUE(report.ok()) << report.Join();
  EXPECT_EQ(report.jobs, 2u);
}

// Same property under a per-socket power cap: the budget governor's windowed
// power reading folds lazily per experiment, never across the worker pool.
TEST(DifferentialTest, PowerCapStaysDeterministicAcrossWorkerCounts) {
  const JsonValue spec = ParseSpec(R"({
    "name": "diff-budget",
    "machines": ["amd-4650g-1s"],
    "variants": [
      {"label": "cfs", "scheduler": "cfs", "governor": "budget"},
      {"label": "nest", "scheduler": "nest", "governor": "budget"},
      {"label": "nest_budget", "scheduler": "nest_budget", "governor": "budget"}
    ],
    "workload": {"family": "nas",
                 "params": {"threads": 8, "iter_compute_ms": 1.0, "iterations": 10}},
    "repetitions": 1,
    "base_seed": 5,
    "config": {"time_limit_s": 20, "power.budget_w": 25.0},
    "table": {"style": "none"}
  })");
  const DifferentialReport report = RunDifferential(spec, /*full_load=*/false);
  EXPECT_TRUE(report.ok()) << report.Join();
}

// Mutation self-test, differential flavour: inject the lost-wakeup fault into
// every job (balancers off so nothing rescues it) and the invariant checker
// must fail the runs, which the differential report surfaces.
TEST(DifferentialTest, InjectedLostWakeupFailsTheReport) {
  DifferentialOptions options;
  options.mutate_config = [](ExperimentConfig* config) {
    config->kernel.enable_newidle_balance = false;
    config->kernel.enable_periodic_balance = false;
    config->kernel.test_skip_enqueue_dispatch_every = 50;
  };
  const DifferentialReport report =
      RunDifferential(HackbenchSpecJson(), /*full_load=*/false, options);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.Join().find("invariant"), std::string::npos) << report.Join();
}

TEST(DifferentialTest, InvalidSpecIsReportedNotCrashed) {
  const JsonValue spec = ParseSpec(R"({"name": "broken"})");
  const DifferentialReport report = RunDifferential(spec, false);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.Join().find("does not parse"), std::string::npos);
}

}  // namespace
}  // namespace nestsim
