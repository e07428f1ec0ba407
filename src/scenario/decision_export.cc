#include "src/scenario/decision_export.h"

#include "src/hw/machine_spec.h"

namespace nestsim {

bool CollectDecisionTraces(const Scenario& scenario, const ScenarioRunOptions& options,
                           DecisionExportResult* out, ScenarioError* err) {
  *out = DecisionExportResult{};
  if (scenario.has_cluster) {
    err->Add(scenario.name,
             "cluster scenarios cannot export decision traces (a fleet's machines "
             "cannot share one trace sink)");
    return false;
  }

  ScenarioRun run;
  if (!ExpandScenario(scenario, options, &run, err)) {
    return false;
  }

  out->labels.reserve(run.jobs.size());
  out->traces.reserve(run.jobs.size());
  for (Job& job : run.jobs) {
    const MachineSpec& spec = MachineByName(job.config.machine);
    const int cpus = spec.num_sockets * spec.physical_cores_per_socket * spec.threads_per_core;
    if (cpus > out->num_cpus) {
      out->num_cpus = cpus;
    }
    auto trace = std::make_shared<DecisionTrace>();
    job.config.predict.decision_trace = trace;
    out->labels.push_back(DecisionLabels{job.config.machine, job.workload, job.variant});
    out->traces.push_back(std::move(trace));
  }

  ExecuteScenario(&run);
  for (size_t i = 0; i < run.outcomes.size(); ++i) {
    const JobOutcome& outcome = run.outcomes[i];
    if (!outcome.ok()) {
      err->Add(scenario.name, "job " + out->labels[i].machine + " x " + out->labels[i].row +
                                  " x " + out->labels[i].variant + " " +
                                  JobStatusName(outcome.status) +
                                  (outcome.message.empty() ? "" : ": " + outcome.message));
    }
  }
  return err->ok();
}

std::vector<DecisionRow> FlattenDecisions(const DecisionExportResult& result) {
  std::vector<DecisionRow> rows;
  for (const std::shared_ptr<DecisionTrace>& trace : result.traces) {
    rows.insert(rows.end(), trace->rows.begin(), trace->rows.end());
  }
  return rows;
}

std::string SerializeDecisions(const DecisionExportResult& result, bool jsonl) {
  std::string out;
  if (!jsonl) {
    out += DecisionCsvHeader(result.num_cpus);
    out += '\n';
  }
  uint64_t decision = 0;
  for (size_t j = 0; j < result.traces.size(); ++j) {
    for (const DecisionRow& row : result.traces[j]->rows) {
      out += jsonl ? DecisionJsonlRow(row, decision, result.labels[j], result.num_cpus)
                   : DecisionCsvRow(row, decision, result.labels[j], result.num_cpus);
      out += '\n';
      ++decision;
    }
  }
  return out;
}

}  // namespace nestsim
