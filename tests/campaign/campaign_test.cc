#include "src/campaign/campaign.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "src/kernel/program.h"
#include "src/sim/cpu_budget.h"
#include "src/workloads/configure.h"

namespace nestsim {
namespace {

// A small but non-trivial workload for determinism checks.
std::shared_ptr<const Workload> SmallConfigure() {
  ConfigureSpec spec = ConfigureWorkload::PackageSpec("gcc");
  spec.num_tests = 10;
  return std::make_shared<ConfigureWorkload>(spec);
}

// Millions of tiny compute slices: cheap in simulated time but expensive in
// events, so the run takes real wall-clock time and a timeout can fire.
class SlowWorkload : public Workload {
 public:
  std::string name() const override { return "slow"; }
  void Setup(Kernel& kernel, Rng&) const override {
    ProgramBuilder b("spinner");
    b.Loop(50'000'000).Compute(100.0).EndLoop();
    kernel.SpawnInitial(b.Build(), "spinner", tag(), 0);
  }
};

class ThrowingWorkload : public Workload {
 public:
  std::string name() const override { return "throwing"; }
  void Setup(Kernel&, Rng&) const override {
    throw std::runtime_error("synthetic workload failure");
  }
};

CampaignOptions QuietOptions(int jobs) {
  CampaignOptions options;
  options.jobs = jobs;
  options.progress = false;
  return options;
}

Campaign MakeJobCampaign(int jobs) {
  Campaign campaign("test", QuietOptions(jobs));
  const auto model = SmallConfigure();
  for (SchedulerKind kind : {SchedulerKind::kCfs, SchedulerKind::kNest, SchedulerKind::kSmove}) {
    for (uint64_t base_seed : {1, 5}) {
      Job job;
      job.workload = "gcc-small";
      job.variant = SchedulerKindName(kind);
      job.config.scheduler = kind;
      job.model = model;
      job.repetitions = 2;
      job.base_seed = base_seed;
      campaign.Add(job);
    }
  }
  return campaign;
}

TEST(CampaignTest, OutcomesComeBackInSubmissionOrder) {
  Campaign campaign = MakeJobCampaign(/*jobs=*/4);
  const std::vector<Job>& jobs = campaign.jobs();
  const std::vector<JobOutcome> outcomes = campaign.Run();
  ASSERT_EQ(outcomes.size(), jobs.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << i << ": " << outcomes[i].message;
    EXPECT_EQ(outcomes[i].result.runs.size(), 2u);
    EXPECT_GT(outcomes[i].wall_seconds, 0.0);
  }
}

TEST(CampaignTest, ResultsIdenticalAcrossWorkerCounts) {
  const std::vector<JobOutcome> serial = MakeJobCampaign(1).Run();
  const std::vector<JobOutcome> pooled = MakeJobCampaign(8).Run();
  ASSERT_EQ(serial.size(), pooled.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].status, pooled[i].status);
    ASSERT_EQ(serial[i].result.runs.size(), pooled[i].result.runs.size());
    EXPECT_DOUBLE_EQ(serial[i].result.mean_seconds, pooled[i].result.mean_seconds);
    EXPECT_DOUBLE_EQ(serial[i].result.stddev_seconds, pooled[i].result.stddev_seconds);
    EXPECT_DOUBLE_EQ(serial[i].result.mean_energy_j, pooled[i].result.mean_energy_j);
    for (size_t r = 0; r < serial[i].result.runs.size(); ++r) {
      const ExperimentResult& a = serial[i].result.runs[r];
      const ExperimentResult& b = pooled[i].result.runs[r];
      EXPECT_EQ(a.makespan, b.makespan);
      EXPECT_EQ(a.context_switches, b.context_switches);
      EXPECT_EQ(a.migrations, b.migrations);
      EXPECT_DOUBLE_EQ(a.energy_joules, b.energy_joules);
      EXPECT_EQ(a.cpus_used, b.cpus_used);
    }
  }
}

TEST(CampaignTest, MatchesRunRepeatedBitwise) {
  const auto model = SmallConfigure();
  Campaign campaign("test", QuietOptions(4));
  Job job;
  job.model = model;
  job.repetitions = 3;
  job.base_seed = 7;
  campaign.Add(job);
  const std::vector<JobOutcome> outcomes = campaign.Run();
  ASSERT_TRUE(outcomes[0].ok());

  const RepeatedResult direct = RunRepeated(ExperimentConfig{}, *model, 3, /*base_seed=*/7);
  EXPECT_EQ(outcomes[0].result.mean_seconds, direct.mean_seconds);
  EXPECT_EQ(outcomes[0].result.stddev_seconds, direct.stddev_seconds);
  ASSERT_EQ(outcomes[0].result.runs.size(), direct.runs.size());
  for (size_t r = 0; r < direct.runs.size(); ++r) {
    EXPECT_EQ(outcomes[0].result.runs[r].makespan, direct.runs[r].makespan);
  }
}

TEST(CampaignTest, TimeoutJobReportsTimeoutAndSparesOthers) {
  for (int jobs : {1, 8}) {
    Campaign campaign("test", QuietOptions(jobs));
    Job slow;
    slow.workload = "slow";
    slow.model = std::make_shared<SlowWorkload>();
    slow.timeout_s = 0.05;
    campaign.Add(slow);
    Job fine;
    fine.workload = "gcc-small";
    fine.model = SmallConfigure();
    campaign.Add(fine);

    const std::vector<JobOutcome> outcomes = campaign.Run();
    EXPECT_EQ(outcomes[0].status, JobStatus::kTimeout) << "jobs=" << jobs;
    EXPECT_LT(outcomes[0].wall_seconds, 30.0);
    EXPECT_TRUE(outcomes[1].ok()) << "jobs=" << jobs;
  }
}

TEST(CampaignTest, ThrownExceptionIsCapturedPerJob) {
  for (int jobs : {1, 8}) {
    Campaign campaign("test", QuietOptions(jobs));
    Job bad;
    bad.workload = "throwing";
    bad.model = std::make_shared<ThrowingWorkload>();
    campaign.Add(bad);
    Job fine;
    fine.workload = "gcc-small";
    fine.model = SmallConfigure();
    campaign.Add(fine);

    const std::vector<JobOutcome> outcomes = campaign.Run();
    EXPECT_EQ(outcomes[0].status, JobStatus::kFailed) << "jobs=" << jobs;
    EXPECT_EQ(outcomes[0].message, "synthetic workload failure");
    EXPECT_TRUE(outcomes[1].ok()) << "jobs=" << jobs;
  }
}

TEST(CampaignTest, ExecuteJobHonoursRepetitionSeeds) {
  Job job;
  job.model = SmallConfigure();
  job.repetitions = 2;
  job.base_seed = 3;
  const JobOutcome outcome = ExecuteJob(job);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome.result.runs.size(), 2u);
  // Distinct seeds produce distinct runs.
  EXPECT_NE(outcome.result.runs[0].makespan, outcome.result.runs[1].makespan);
}

TEST(CampaignTest, AbortHookStopsExperimentQuickly) {
  ExperimentConfig config;
  config.should_abort = [] { return true; };
  const ExperimentResult r = RunExperiment(config, SlowWorkload());
  EXPECT_TRUE(r.aborted);
  EXPECT_FALSE(r.hit_time_limit);
}

TEST(CampaignTest, MoreWorkersThanJobsIsFine) {
  Campaign campaign("test", QuietOptions(16));
  Job job;
  job.model = SmallConfigure();
  campaign.Add(job);
  const std::vector<JobOutcome> outcomes = campaign.Run();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].ok());
}

TEST(CampaignTest, EmptyCampaignRuns) {
  Campaign campaign("test", QuietOptions(4));
  EXPECT_TRUE(campaign.Run().empty());
}

TEST(CampaignTest, JobStatusNames) {
  EXPECT_STREQ(JobStatusName(JobStatus::kOk), "ok");
  EXPECT_STREQ(JobStatusName(JobStatus::kTimeout), "timeout");
  EXPECT_STREQ(JobStatusName(JobStatus::kFailed), "failed");
}

// A campaign holds a CPU for every thread it runs jobs on before the first
// starts, so even the first job of a pool as wide as the host borrows
// nothing: every job sees the whole pool's hold.
TEST(CpuBudgetTest, ACampaignHoldsItsThreadsBeforeAnyJobRuns) {
  const int usable = UsableCpus();
  const int workers = usable + 1;
  Campaign campaign("budget", CampaignOptions{workers, /*progress=*/false, /*jsonl_path=*/""});
  std::mutex mu;
  int max_loan = 0;
  int min_held = workers + 1;
  for (int i = 0; i < workers; ++i) {
    Job job;
    job.model = SmallConfigure();
    job.runner = [&](const ExperimentConfig&, const Workload&) {
      const int held = CpuBudget::Held();
      const CpuBudget::Loan loan(8);
      const std::lock_guard<std::mutex> lock(mu);
      min_held = std::min(min_held, held);
      max_loan = std::max(max_loan, loan.cpus());
      return ExperimentResult();
    };
    campaign.Add(std::move(job));
  }
  for (const JobOutcome& outcome : campaign.Run()) {
    EXPECT_TRUE(outcome.ok()) << outcome.message;
  }
  EXPECT_EQ(max_loan, 0);
  EXPECT_GE(min_held, workers);
  EXPECT_EQ(CpuBudget::Held(), 0);
}

}  // namespace
}  // namespace nestsim
