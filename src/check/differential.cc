#include "src/check/differential.h"

#include <cstdio>

#include "src/obs/json_check.h"
#include "src/scenario/baseline.h"
#include "src/scenario/runner.h"

namespace nestsim {

namespace {

// Expands and executes one pass of the grid with `jobs` campaign workers,
// the invariant checker forced on, and the caller's mutation applied.
bool RunPass(const Scenario& scenario, int jobs, const DifferentialOptions& options,
             ScenarioRun* run, ScenarioError* err) {
  ScenarioRunOptions run_options;
  run_options.campaign.jobs = jobs;
  run_options.campaign.progress = false;
  run_options.campaign.jsonl_path.clear();  // hermetic: ignore NESTSIM_JSONL
  if (!ExpandScenario(scenario, run_options, run, err)) {
    return false;
  }
  for (Job& job : run->jobs) {
    job.config.check_invariants = true;
    if (options.mutate_config) {
      options.mutate_config(&job.config);
    }
  }
  ExecuteScenario(run);
  return true;
}

std::string JobLabel(const ScenarioRun& run, size_t machine, size_t row, size_t variant,
                     size_t sweep) {
  const Job& job = run.job(machine, row, variant, sweep);
  std::string label = run.scenario.machines[machine] + " " + job.workload + "/" + job.variant;
  if (!run.sweep_labels[sweep].empty()) {
    label += " [" + run.sweep_labels[sweep] + "]";
  }
  return label;
}

// Holds pass b to pass a with the golden gate's comparator: every job's
// record from pass a plays the golden, wall_s left out. `passes` names the
// two in problem messages ("1 worker vs a pool").
void CheckDeterminism(const ScenarioRun& a, const ScenarioRun& b, const std::string& passes,
                      DifferentialReport* report) {
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    JsonValue golden;
    JsonValue fresh;
    std::string error;
    if (!JsonParse(BaselineJobRecord(a.jobs[i], a.outcomes[i]), &golden, &error) ||
        !JsonParse(BaselineJobRecord(b.jobs[i], b.outcomes[i]), &fresh, &error)) {
      const Job& job = a.jobs[i];
      report->problems.push_back("unreadable record: " + job.config.machine + " x " +
                                 job.workload + " x " + job.variant + ": " + error);
      continue;
    }
    std::vector<std::string> problems;
    CompareJobRecords(golden, fresh, /*wall_tolerance=*/0.0, &problems);
    for (const std::string& problem : problems) {
      report->problems.push_back("nondeterminism (" + passes + "): " + problem);
    }
  }
}

void CheckHealth(const ScenarioRun& run, DifferentialReport* report) {
  for (size_t m = 0; m < run.num_machines(); ++m) {
    for (size_t r = 0; r < run.num_rows(); ++r) {
      for (size_t v = 0; v < run.num_variants(); ++v) {
        for (size_t s = 0; s < run.num_sweeps(); ++s) {
          const JobOutcome& outcome = run.outcome(m, r, v, s);
          if (outcome.ok()) {
            continue;
          }
          std::string problem = std::string(JobStatusName(outcome.status)) + ": " +
                                JobLabel(run, m, r, v, s);
          if (!outcome.message.empty()) {
            problem += "\n" + outcome.message;
          }
          report->problems.push_back(std::move(problem));
        }
      }
    }
  }
}

// Across variants of the same (machine, row, sweep) cell the workload model
// and seed are identical, so the task population must be too.
void CheckAccounting(const ScenarioRun& run, DifferentialReport* report) {
  for (size_t m = 0; m < run.num_machines(); ++m) {
    for (size_t r = 0; r < run.num_rows(); ++r) {
      for (size_t s = 0; s < run.num_sweeps(); ++s) {
        bool comparable = true;
        for (size_t v = 0; v < run.num_variants() && comparable; ++v) {
          const JobOutcome& outcome = run.outcome(m, r, v, s);
          comparable = outcome.ok();
          if (comparable) {
            for (const ExperimentResult& rep : outcome.result.runs) {
              comparable = comparable && !rep.hit_time_limit && !rep.aborted;
            }
          }
        }
        if (!comparable || run.num_variants() < 2) {
          continue;
        }
        const JobOutcome& base = run.outcome(m, r, 0, s);
        for (size_t v = 1; v < run.num_variants(); ++v) {
          const JobOutcome& other = run.outcome(m, r, v, s);
          for (size_t i = 0; i < base.result.runs.size(); ++i) {
            if (base.result.runs[i].tasks_created != other.result.runs[i].tasks_created) {
              char detail[128];
              std::snprintf(detail, sizeof(detail), "rep %zu created %d tasks vs %d under %s", i,
                            other.result.runs[i].tasks_created,
                            base.result.runs[i].tasks_created,
                            run.job(m, r, 0, s).variant.c_str());
              report->problems.push_back("task accounting: " + JobLabel(run, m, r, v, s) + " " +
                                         detail);
            }
          }
        }
      }
    }
  }
}

void CheckNeutrality(const ScenarioRun& run, double band, DifferentialReport* report) {
  // Pair each Nest variant with the CFS variant sharing its governor.
  for (size_t m = 0; m < run.num_machines(); ++m) {
    for (size_t r = 0; r < run.num_rows(); ++r) {
      for (size_t s = 0; s < run.num_sweeps(); ++s) {
        for (size_t nest = 0; nest < run.num_variants(); ++nest) {
          if (run.scenario.variants[nest].scheduler != SchedulerKind::kNest) {
            continue;
          }
          for (size_t cfs = 0; cfs < run.num_variants(); ++cfs) {
            if (run.scenario.variants[cfs].scheduler != SchedulerKind::kCfs ||
                run.scenario.variants[cfs].governor != run.scenario.variants[nest].governor) {
              continue;
            }
            const JobOutcome& oc = run.outcome(m, r, cfs, s);
            const JobOutcome& on = run.outcome(m, r, nest, s);
            if (!oc.ok() || !on.ok()) {
              continue;
            }
            bool bounded = true;
            for (const JobOutcome* o : {&oc, &on}) {
              for (const ExperimentResult& rep : o->result.runs) {
                bounded = bounded && !rep.hit_time_limit && !rep.aborted;
              }
            }
            if (!bounded || oc.result.mean_seconds <= 0 || on.result.mean_seconds <= 0) {
              continue;
            }
            const double ratio = on.result.mean_seconds / oc.result.mean_seconds;
            if (ratio > 1.0 + band || ratio < 1.0 / (1.0 + band)) {
              char detail[160];
              std::snprintf(detail, sizeof(detail),
                            "nest %.4fs vs cfs %.4fs (ratio %.3f outside +/-%.0f%%)",
                            on.result.mean_seconds, oc.result.mean_seconds, ratio, band * 100);
              report->problems.push_back("full-load neutrality: " +
                                         JobLabel(run, m, r, nest, s) + " " + detail);
            }
          }
        }
      }
    }
  }
}

}  // namespace

std::string DifferentialReport::Join() const {
  std::string out;
  for (const std::string& p : problems) {
    if (!out.empty()) {
      out += '\n';
    }
    out += p;
  }
  return out;
}

DifferentialReport RunDifferential(const JsonValue& spec, bool full_load,
                                   const DifferentialOptions& options) {
  DifferentialReport report;

  Scenario scenario;
  ScenarioError err;
  if (!ParseScenario(spec, "generated", &scenario, &err)) {
    report.problems.push_back("generated spec does not parse:\n" + err.Join());
    return report;
  }

  ScenarioRun serial;
  ScenarioRun parallel;
  if (!RunPass(scenario, options.serial_jobs, options, &serial, &err) ||
      !RunPass(scenario, options.parallel_jobs, options, &parallel, &err)) {
    report.problems.push_back("scenario does not expand:\n" + err.Join());
    return report;
  }
  report.jobs = serial.jobs.size();

  CheckHealth(serial, &report);
  CheckDeterminism(serial, parallel, "1 worker vs a pool", &report);
  // The nest_predict fallback contract (docs/PREDICTION.md §3): with no
  // model loaded the policy must be bit-identical to plain Nest. Re-run the
  // serial pass with every kNest job flipped to kNestPredict — model nulled,
  // in case the scenario drew predict.model_file — and hold it to the same
  // determinism bar as a worker-count change.
  bool any_nest = false;
  for (const auto& variant : scenario.variants) {
    any_nest = any_nest || variant.scheduler == SchedulerKind::kNest;
  }
  if (any_nest) {
    DifferentialOptions flip = options;
    flip.mutate_config = [&options](ExperimentConfig* config) {
      if (options.mutate_config) {
        options.mutate_config(config);
      }
      if (config->scheduler == SchedulerKind::kNest) {
        config->scheduler = SchedulerKind::kNestPredict;
        config->predict.model = nullptr;
      }
    };
    ScenarioRun predict;
    if (!RunPass(scenario, options.serial_jobs, flip, &predict, &err)) {
      report.problems.push_back("scenario does not expand:\n" + err.Join());
      return report;
    }
    CheckDeterminism(serial, predict, "nest vs nest_predict with an empty model", &report);
  }
  CheckAccounting(serial, &report);
  if (full_load) {
    CheckNeutrality(serial, options.neutrality_band, &report);
  }
  return report;
}

}  // namespace nestsim
