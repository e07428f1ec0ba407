// Campaign job records: one seeded-and-repeated experiment per job.
//
// A Job is self-contained — config, workload model, repetitions, wall-clock
// budget — so the campaign runner can execute it on any worker thread. Job
// failures never abort the campaign: timeouts and exceptions are captured in
// the JobOutcome and the remaining jobs keep running.

#ifndef NESTSIM_SRC_CAMPAIGN_JOB_H_
#define NESTSIM_SRC_CAMPAIGN_JOB_H_

#include <functional>
#include <memory>
#include <string>

#include "src/core/experiment.h"

namespace nestsim {

enum class JobStatus {
  kOk,       // every repetition completed
  kTimeout,  // wall-clock budget exceeded; partial results are discarded
  kFailed,   // an exception escaped the experiment
};

const char* JobStatusName(JobStatus status);

struct Job {
  // Table labels used for reporting (row = workload, column = variant).
  std::string workload;
  std::string variant;

  // `config.seed` is overwritten per repetition with base_seed + i.
  ExperimentConfig config;

  // Immutable workload model. Setup() is const and all randomness comes from
  // the per-run seeded Rng, so one instance may back many concurrent jobs.
  std::shared_ptr<const Workload> model;

  int repetitions = 1;
  uint64_t base_seed = 1;
  double timeout_s = 0.0;  // wall-clock budget for the whole job; 0 = unlimited

  // Optional alternative runner (the scenario engine installs
  // RunClusterExperiment here for cluster scenarios, which is how tools tell
  // fleet jobs apart); empty means plain RunExperiment. Must be thread-safe
  // across concurrent jobs, like the workload model.
  std::function<ExperimentResult(const ExperimentConfig&, const Workload&)> runner;
};

struct JobOutcome {
  JobStatus status = JobStatus::kFailed;
  std::string message;        // exception text when status == kFailed
  RepeatedResult result;      // valid only when status == kOk
  double wall_seconds = 0.0;  // what the job cost in real time

  bool ok() const { return status == JobStatus::kOk; }
};

}  // namespace nestsim

#endif  // NESTSIM_SRC_CAMPAIGN_JOB_H_
