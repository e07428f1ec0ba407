#include "src/campaign/campaign.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "src/campaign/jsonl_sink.h"
#include "src/campaign/progress.h"
#include "src/sim/cpu_budget.h"

namespace nestsim {

int CampaignJobsFromEnv() {
  if (const char* env = std::getenv("NESTSIM_JOBS")) {
    const int jobs = std::atoi(env);
    if (jobs > 0) {
      return jobs;
    }
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

int RepetitionsFromEnv(int fallback) {
  if (const char* env = std::getenv("NESTSIM_REPS")) {
    const int reps = std::atoi(env);
    if (reps > 0) {
      return reps;
    }
  }
  return fallback;
}

CampaignOptions CampaignOptions::FromEnv() {
  CampaignOptions options;
  options.jobs = CampaignJobsFromEnv();
  options.jsonl_path = JsonlSink::PathFromEnv();
  return options;
}

JobOutcome ExecuteJob(const Job& job) {
  using Clock = std::chrono::steady_clock;
  JobOutcome out;
  const Clock::time_point start = Clock::now();
  const bool timed = job.timeout_s > 0.0;
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(timed ? job.timeout_s : 0.0));
  try {
    std::vector<ExperimentResult> runs;
    runs.reserve(static_cast<size_t>(job.repetitions > 0 ? job.repetitions : 0));
    bool timed_out = false;
    for (int i = 0; i < job.repetitions && !timed_out; ++i) {
      ExperimentConfig config = job.config;
      config.seed = job.base_seed + static_cast<uint64_t>(i);
      if (timed) {
        config.should_abort = [deadline] { return Clock::now() >= deadline; };
      }
      ExperimentResult r =
          job.runner ? job.runner(config, *job.model) : RunExperiment(config, *job.model);
      timed_out = r.aborted;
      if (!timed_out) {
        runs.push_back(std::move(r));
      }
    }
    if (timed_out) {
      out.status = JobStatus::kTimeout;
      out.message = "wall-clock budget exceeded";
    } else {
      out.result = AggregateRuns(std::move(runs));
      out.status = JobStatus::kOk;
    }
  } catch (const std::exception& e) {
    out.status = JobStatus::kFailed;
    out.message = e.what();
  } catch (...) {
    out.status = JobStatus::kFailed;
    out.message = "unknown exception";
  }
  out.wall_seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return out;
}

Campaign::Campaign(std::string name, CampaignOptions options)
    : name_(std::move(name)), options_(std::move(options)) {}

size_t Campaign::Add(Job job) {
  jobs_.push_back(std::move(job));
  return jobs_.size() - 1;
}

std::vector<JobOutcome> Campaign::Run() {
  const size_t n = jobs_.size();
  std::vector<JobOutcome> outcomes(n);
  int workers = options_.jobs > 0 ? options_.jobs : CampaignJobsFromEnv();
  if (static_cast<size_t>(workers) > n) {
    workers = static_cast<int>(n);
  }
  ProgressMeter progress(name_, n, options_.progress);

  // Records stream out in Add() order while jobs complete in any order: a
  // finished job marks itself done, then drains every record whose
  // predecessors have all finished. The sink flushes after each record, so
  // killing the campaign mid-run leaves a parseable prefix of the final file.
  JsonlSink sink(options_.jsonl_path);
  std::mutex stream_mu;
  std::vector<char> done(n, 0);
  size_t next_to_write = 0;
  auto stream_outcome = [&](size_t i) {
    if (!sink.enabled()) {
      return;
    }
    std::lock_guard<std::mutex> lock(stream_mu);
    done[i] = 1;
    while (next_to_write < n && done[next_to_write]) {
      sink.Write(name_, jobs_[next_to_write], outcomes[next_to_write]);
      ++next_to_write;
    }
  };

  // Every thread that runs jobs sits on a CPU of the budget, all held before
  // the first starts, so a fleet job's windowed executor borrows only what
  // the whole pool leaves free.
  const CpuBudget::Hold hold(std::max(workers, 1));
  if (workers <= 1) {
    for (size_t i = 0; i < n; ++i) {
      outcomes[i] = ExecuteJob(jobs_[i]);
      stream_outcome(i);
      progress.JobDone();
    }
  } else {
    std::atomic<size_t> next{0};
    auto worker = [&] {
      while (true) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) {
          return;
        }
        outcomes[i] = ExecuteJob(jobs_[i]);
        stream_outcome(i);
        progress.JobDone();
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back(worker);
    }
    for (std::thread& t : pool) {
      t.join();
    }
  }
  return outcomes;
}

}  // namespace nestsim
