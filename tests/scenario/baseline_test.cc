// Golden-baseline gate: record/check round-trips pass, any perturbation of a
// deterministic field fails with a problem that names the job and field, and
// the wall-clock tolerance band only bites when enabled.

#include "src/scenario/baseline.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "src/obs/json_check.h"

namespace nestsim {
namespace {

ScenarioRun ExecutedSmokeRun(uint64_t base_seed = 3) {
  const char* json = R"({
    "name": "baseline_test",
    "machines": ["intel-5218-2s"],
    "variants": [
      {"label": "CFS sched", "scheduler": "cfs", "governor": "schedutil"},
      {"label": "Nest sched", "scheduler": "nest", "governor": "schedutil"}
    ],
    "workload": {"family": "configure", "rows": [
      {"label": "tiny-gcc", "params": {"preset": "gcc", "num_tests": 8}}
    ]},
    "repetitions": 2
  })";
  JsonValue root;
  std::string json_error;
  EXPECT_TRUE(JsonParse(json, &root, &json_error)) << json_error;
  Scenario scenario;
  ScenarioError err;
  EXPECT_TRUE(ParseScenario(root, "baseline_test", &scenario, &err)) << err.Join();

  ScenarioRunOptions options;
  options.campaign = CampaignOptions{};
  options.campaign.jobs = 1;
  options.campaign.progress = false;
  options.campaign.jsonl_path.clear();
  options.has_base_seed = true;
  options.base_seed = base_seed;

  ScenarioRun run;
  EXPECT_TRUE(ExpandScenario(scenario, options, &run, &err)) << err.Join();
  ExecuteScenario(&run);
  return run;
}

std::string FreshDir(const char* name) {
  const std::string dir = testing::TempDir() + "/" + name;
  const std::string cmd = "rm -rf " + dir + " && mkdir -p " + dir;
  EXPECT_EQ(std::system(cmd.c_str()), 0);
  return dir;
}

TEST(BaselineTest, Fnv1a64MatchesKnownVectors) {
  // Reference values for the 64-bit FNV-1a parameters.
  EXPECT_EQ(Fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(BaselineTest, DigestIsStableAndHexFormatted) {
  SchedCounters counters;
  counters.wake_placements = 3;
  const std::string digest = SchedCountersDigest(counters);
  EXPECT_EQ(digest.size(), 16u);
  EXPECT_EQ(digest, SchedCountersDigest(counters));
  counters.wake_placements = 4;
  EXPECT_NE(digest, SchedCountersDigest(counters));
}

TEST(BaselineTest, JsonlIsParseableAndOrdered) {
  const ScenarioRun run = ExecutedSmokeRun();
  const std::string jsonl = BaselineJsonl(run);

  std::istringstream in(jsonl);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 1u + run.jobs.size());
  for (const std::string& l : lines) {
    std::string error;
    EXPECT_TRUE(JsonValid(l, &error)) << l << ": " << error;
  }
  EXPECT_NE(lines[0].find("\"baseline\":\"baseline_test\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"base_seed\":3"), std::string::npos);
  EXPECT_NE(lines[1].find("\"variant\":\"CFS sched\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"variant\":\"Nest sched\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"makespan_ns\":"), std::string::npos);
  EXPECT_NE(lines[1].find("\"counters\":\""), std::string::npos);
}

TEST(BaselineTest, RecordThenCheckPasses) {
  const std::string dir = FreshDir("baseline_roundtrip");
  const ScenarioRun run = ExecutedSmokeRun();
  std::string error;
  ASSERT_TRUE(RecordBaseline(run, dir, &error)) << error;

  // A second identically-seeded execution matches the golden exactly.
  const ScenarioRun again = ExecutedSmokeRun();
  const BaselineCheck check = CheckBaseline(again, dir);
  EXPECT_TRUE(check.ok()) << (check.problems.empty() ? "" : check.problems[0]);
  EXPECT_EQ(check.jobs, 2);
  EXPECT_EQ(check.compared, 2);
  EXPECT_EQ(check.baseline_path, BaselinePath(dir, "baseline_test"));
}

TEST(BaselineTest, PerturbedSeedFails) {
  const std::string dir = FreshDir("baseline_perturbed");
  std::string error;
  ASSERT_TRUE(RecordBaseline(ExecutedSmokeRun(3), dir, &error)) << error;

  const BaselineCheck check = CheckBaseline(ExecutedSmokeRun(99), dir);
  EXPECT_FALSE(check.ok());
  ASSERT_FALSE(check.problems.empty());
  EXPECT_NE(check.problems[0].find("base_seed"), std::string::npos) << check.problems[0];
  // The header mismatch does not end the check: every job is still compared,
  // and each run reports its own seed change.
  EXPECT_EQ(check.compared, 2);
  bool per_run = false;
  for (const std::string& problem : check.problems) {
    if (problem.find("tiny-gcc x CFS sched: seed changed: golden 3, fresh 99") !=
        std::string::npos) {
      per_run = true;
    }
  }
  EXPECT_TRUE(per_run) << ::testing::PrintToString(check.problems);
}

TEST(BaselineTest, TamperedGoldenFieldFails) {
  const std::string dir = FreshDir("baseline_tampered");
  const ScenarioRun run = ExecutedSmokeRun();
  std::string error;
  ASSERT_TRUE(RecordBaseline(run, dir, &error)) << error;

  // Flip one digit of the first makespan in the golden file.
  const std::string path = BaselinePath(dir, "baseline_test");
  std::string text;
  {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    text = ss.str();
  }
  const size_t pos = text.find("\"makespan_ns\":");
  ASSERT_NE(pos, std::string::npos);
  const size_t digit = pos + std::string("\"makespan_ns\":").size();
  text[digit] = text[digit] == '9' ? '8' : '9';
  {
    std::ofstream out(path, std::ios::trunc);
    out << text;
  }

  const BaselineCheck check = CheckBaseline(run, dir);
  EXPECT_FALSE(check.ok());
  bool names_field = false;
  for (const std::string& problem : check.problems) {
    if (problem.find("makespan_ns") != std::string::npos) {
      names_field = true;
    }
  }
  EXPECT_TRUE(names_field) << (check.problems.empty() ? "" : check.problems[0]);
}

TEST(BaselineTest, MissingBaselineFails) {
  const std::string dir = FreshDir("baseline_missing");
  const BaselineCheck check = CheckBaseline(ExecutedSmokeRun(), dir);
  EXPECT_FALSE(check.ok());
  ASSERT_FALSE(check.problems.empty());
  EXPECT_NE(check.problems[0].find("no golden baseline"), std::string::npos)
      << check.problems[0];
}

// A golden over the input cap is refused before it is split into records,
// with one problem naming the path and the limit. The file is sparse: it
// costs no disk, and reading stops at the cap.
TEST(BaselineTest, GoldenOverTheInputCapIsRefused) {
  const std::string dir = FreshDir("baseline_too_large");
  const std::string path = BaselinePath(dir, "baseline_test");
  { std::ofstream out(path, std::ios::trunc); }
  std::filesystem::resize_file(path, kMaxInputFileBytes + 1);
  const BaselineCheck check = CheckBaseline(ExecutedSmokeRun(), dir);
  ASSERT_EQ(check.problems.size(), 1u) << ::testing::PrintToString(check.problems);
  EXPECT_EQ(check.problems[0], path + ": file is larger than the 16 MiB input limit (" +
                                   std::to_string(kMaxInputFileBytes) + " bytes)");
  EXPECT_EQ(check.compared, 0);
  std::remove(path.c_str());
}

TEST(BaselineTest, WallToleranceOnlyBitesWhenEnabled) {
  const std::string dir = FreshDir("baseline_wall");
  ScenarioRun run = ExecutedSmokeRun();
  std::string error;
  ASSERT_TRUE(RecordBaseline(run, dir, &error)) << error;

  // Inflate the fresh run's wall clock far past any real variance.
  for (JobOutcome& outcome : run.outcomes) {
    outcome.wall_seconds = outcome.wall_seconds * 1000.0 + 10.0;
  }
  // Default: wall clock is not checked at all.
  EXPECT_TRUE(CheckBaseline(run, dir).ok());
  // With a ±25% band the inflated wall clock fails.
  const BaselineCheck strict = CheckBaseline(run, dir, 0.25);
  EXPECT_FALSE(strict.ok());
  ASSERT_FALSE(strict.problems.empty());
  EXPECT_NE(strict.problems[0].find("wall_s"), std::string::npos) << strict.problems[0];
}

TEST(BaselineTest, GoldenKeyTheWriterNoLongerEmitsFails) {
  const std::string dir = FreshDir("baseline_retired_key");
  const ScenarioRun run = ExecutedSmokeRun();
  std::string error;
  ASSERT_TRUE(RecordBaseline(run, dir, &error)) << error;

  // A golden recorded by a writer that also emitted "retired_ns" per run.
  const std::string path = BaselinePath(dir, "baseline_test");
  std::string text;
  {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    text = ss.str();
  }
  const size_t pos = text.find("\"makespan_ns\":");
  ASSERT_NE(pos, std::string::npos);
  text.insert(pos, "\"retired_ns\":7,");
  {
    std::ofstream out(path, std::ios::trunc);
    out << text;
  }

  const BaselineCheck check = CheckBaseline(run, dir);
  EXPECT_FALSE(check.ok());
  ASSERT_EQ(check.problems.size(), 1u) << ::testing::PrintToString(check.problems);
  EXPECT_NE(check.problems[0].find("tiny-gcc x CFS sched: fresh record lacks \"retired_ns\""),
            std::string::npos)
      << check.problems[0];
}

// CompareJobRecords is the comparator of both the golden gate and the fuzz
// differential (src/check/differential.cc), which holds one pass's records to
// another's with wall_s left out.
Job RecordedJob() {
  Job job;
  job.workload = "tiny-gcc";
  job.variant = "Nest sched";
  job.config.machine = "intel-5218-2s";
  job.base_seed = 3;
  return job;
}

JobOutcome TwoRunOutcome() {
  JobOutcome outcome;
  outcome.status = JobStatus::kOk;
  outcome.wall_seconds = 0.5;
  outcome.result.runs.resize(2);
  for (ExperimentResult& r : outcome.result.runs) {
    r.makespan = 40 * kMillisecond;
    r.energy_joules = 1.25;
    r.context_switches = 90;
    r.tasks_created = 12;
  }
  return outcome;
}

std::vector<std::string> CompareOutcomes(const JobOutcome& golden, const JobOutcome& fresh) {
  JsonValue golden_record;
  JsonValue fresh_record;
  std::string error;
  EXPECT_TRUE(JsonParse(BaselineJobRecord(RecordedJob(), golden), &golden_record, &error));
  EXPECT_TRUE(JsonParse(BaselineJobRecord(RecordedJob(), fresh), &fresh_record, &error));
  std::vector<std::string> problems;
  CompareJobRecords(golden_record, fresh_record, /*wall_tolerance=*/0.0, &problems);
  return problems;
}

TEST(CompareJobRecordsTest, EqualOutcomesAtAnyWallTimeMatch) {
  JobOutcome fresh = TwoRunOutcome();
  fresh.wall_seconds = 9.0;
  EXPECT_TRUE(CompareOutcomes(TwoRunOutcome(), fresh).empty());
}

TEST(CompareJobRecordsTest, OneRunsEnergyIsReported) {
  JobOutcome fresh = TwoRunOutcome();
  fresh.result.runs[1].energy_joules = 1.2500000000000002;
  const std::vector<std::string> problems = CompareOutcomes(TwoRunOutcome(), fresh);
  ASSERT_EQ(problems.size(), 1u) << ::testing::PrintToString(problems);
  EXPECT_EQ(problems[0],
            "intel-5218-2s x tiny-gcc x Nest sched: energy_j changed: golden 1.25, fresh "
            "1.2500000000000002 (runs[1])");
}

TEST(CompareJobRecordsTest, OneResilienceMemberIsReported) {
  JobOutcome golden = TwoRunOutcome();
  golden.result.runs[0].resilience.replicas_reaped = 4;
  golden.result.runs[0].resilience.wasted_replica_ms = 1.5;
  JobOutcome fresh = golden;
  fresh.result.runs[0].resilience.wasted_replica_ms = 2.5;
  const std::vector<std::string> problems = CompareOutcomes(golden, fresh);
  ASSERT_EQ(problems.size(), 1u) << ::testing::PrintToString(problems);
  EXPECT_NE(problems[0].find("wasted_replica_ms changed: golden 1.5, fresh 2.5 (runs[0])"),
            std::string::npos)
      << problems[0];
}

TEST(CompareJobRecordsTest, JobThatDidNotFinishComparesByStatusAlone) {
  JobOutcome failed;
  failed.status = JobStatus::kFailed;
  failed.message = "first message";
  JobOutcome failed_again = failed;
  failed_again.message = "second message";
  EXPECT_TRUE(CompareOutcomes(failed, failed_again).empty());

  const std::vector<std::string> problems = CompareOutcomes(TwoRunOutcome(), failed);
  ASSERT_EQ(problems.size(), 1u) << ::testing::PrintToString(problems);
  EXPECT_NE(problems[0].find("status changed: golden \"ok\", fresh \"failed\""),
            std::string::npos)
      << problems[0];
}

TEST(BaselineTest, VerdictJsonIsValidAndCarriesProblems) {
  BaselineCheck pass;
  pass.scenario = "a";
  pass.baseline_path = "baselines/a.jsonl";
  pass.jobs = 2;
  pass.compared = 2;
  BaselineCheck fail;
  fail.scenario = "b";
  fail.baseline_path = "baselines/b.jsonl";
  fail.jobs = 1;
  fail.problems.push_back("job 0: makespan_ns mismatch \"quoted\"");

  const std::string verdict = BaselineVerdictJson({pass, fail});
  std::string error;
  ASSERT_TRUE(JsonValid(verdict, &error)) << verdict << ": " << error;
  EXPECT_NE(verdict.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(verdict.find("\"scenario\":\"a\""), std::string::npos);
  EXPECT_NE(verdict.find("makespan_ns mismatch"), std::string::npos);

  const std::string all_pass = BaselineVerdictJson({pass});
  EXPECT_NE(all_pass.find("\"ok\":true"), std::string::npos);
}

}  // namespace
}  // namespace nestsim
