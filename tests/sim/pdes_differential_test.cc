// The serial-vs-parallel differential layer (docs/PARALLEL.md):
// randomized parallel.* knob draws (sync algorithm, lookahead caps) must
// never be observable. Every committed golden is checked against its file
// serially and at 1/2/4/8 PDES workers by ctest's golden gate
// (`ctest -R '^golden\.'`, docs/TESTING.md).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/sched_counters.h"
#include "src/scenario/baseline.h"
#include "src/scenario/runner.h"
#include "src/scenario/scenario.h"
#include "src/sim/random.h"

namespace nestsim {
namespace {

// What the knob draws must reproduce, per repetition of per job.
struct RunFingerprint {
  SimDuration makespan = 0;
  std::string digest;
};

std::vector<std::vector<RunFingerprint>> ExecuteAt(const Scenario& scenario, int workers) {
  ScenarioRunOptions options;
  options.repetitions_override = 1;  // one seed per job keeps the suite fast
  options.parallel_workers = workers;
  options.campaign.jobs = 1;
  options.campaign.progress = false;
  options.campaign.jsonl_path.clear();
  ScenarioRun run;
  ScenarioError err;
  if (!ExpandScenario(scenario, options, &run, &err)) {
    ADD_FAILURE() << scenario.name << " does not expand: " << err.Join();
    return {};
  }
  ExecuteScenario(&run);

  std::vector<std::vector<RunFingerprint>> out;
  for (const JobOutcome& outcome : run.outcomes) {
    EXPECT_TRUE(outcome.ok()) << scenario.name << " at " << workers
                              << " workers: " << outcome.message;
    std::vector<RunFingerprint> reps;
    for (const ExperimentResult& r : outcome.result.runs) {
      RunFingerprint fp;
      fp.makespan = r.makespan;
      fp.digest = SchedCountersDigest(r.counters);
      reps.push_back(fp);
    }
    out.push_back(std::move(reps));
  }
  return out;
}

Scenario LoadCommitted(const std::string& stem) {
  const std::string path = std::string(NESTSIM_REPO_DIR) + "/scenarios/" + stem + ".json";
  Scenario scenario;
  ScenarioError err;
  EXPECT_TRUE(LoadScenario(path, &scenario, &err)) << err.Join();
  return scenario;
}

// Randomized knob fuzz: sync mode and lookahead cap are pure execution
// policy, so random draws — including sub-window lookaheads that chop every
// arrival gap into heartbeats — must reproduce the serial history exactly.
TEST(PdesDifferentialTest, RandomParallelKnobDrawsNeverChangeResults) {
  const Scenario base = LoadCommitted("cluster_smoke");
  const auto reference = ExecuteAt(base, /*workers=*/0);
  ASSERT_FALSE(reference.empty());

  Rng rng(20260807);
  static const char* kSync[] = {"auto", "window", "lockstep"};
  for (int draw = 0; draw < 8; ++draw) {
    Scenario scenario = base;
    const int workers = 1 + static_cast<int>(rng.NextBounded(8));
    const char* sync = kSync[rng.NextBounded(3)];
    // Spans "tiny heartbeat" (10 us) to "wider than any arrival gap".
    const double lookahead_us = rng.NextBool(0.5) ? 0.0 : rng.NextDouble(10.0, 50000.0);

    ScenarioRunOptions options;
    options.repetitions_override = 1;
    options.parallel_workers = workers;
    options.campaign.jobs = 1;
    options.campaign.progress = false;
    options.campaign.jsonl_path.clear();
    ScenarioRun run;
    ScenarioError err;
    ASSERT_TRUE(ExpandScenario(scenario, options, &run, &err)) << err.Join();
    for (Job& job : run.jobs) {
      job.config.parallel.sync = sync;
      job.config.parallel.lookahead_us = lookahead_us;
    }
    ExecuteScenario(&run);

    ASSERT_EQ(run.outcomes.size(), reference.size());
    for (size_t j = 0; j < run.outcomes.size(); ++j) {
      const JobOutcome& outcome = run.outcomes[j];
      ASSERT_TRUE(outcome.ok()) << outcome.message;
      ASSERT_EQ(outcome.result.runs.size(), reference[j].size());
      for (size_t i = 0; i < outcome.result.runs.size(); ++i) {
        const ExperimentResult& r = outcome.result.runs[i];
        EXPECT_EQ(r.makespan, reference[j][i].makespan)
            << workers << " workers, sync " << sync << ", lookahead " << lookahead_us;
        EXPECT_EQ(SchedCountersDigest(r.counters), reference[j][i].digest)
            << workers << " workers, sync " << sync << ", lookahead " << lookahead_us;
      }
    }
  }
}

}  // namespace
}  // namespace nestsim
