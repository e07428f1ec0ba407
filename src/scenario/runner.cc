#include "src/scenario/runner.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "src/cluster/cluster.h"
#include "src/hw/machine_spec.h"
#include "src/metrics/stats.h"
#include "src/scenario/registry.h"
#include "src/scenario/report.h"

namespace nestsim {

namespace {

// "3", "0.25", "true", "fast" — sweep-label rendering of a scalar.
std::string ScalarLabel(const JsonValue& v) {
  switch (v.type) {
    case JsonValue::Type::kBool:
      return v.boolean ? "true" : "false";
    case JsonValue::Type::kString:
      return v.string;
    case JsonValue::Type::kNumber: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%g", v.number);
      return buf;
    }
    default:
      return JsonTypeName(v.type);
  }
}

// One sweep point: the value index chosen on each axis.
using SweepPoint = std::vector<size_t>;

// Cross product of the axes, last axis innermost. A sweepless scenario gets
// one empty point.
std::vector<SweepPoint> SweepPoints(const std::vector<SweepAxis>& axes) {
  std::vector<SweepPoint> points = {SweepPoint(axes.size(), 0)};
  for (size_t a = 0; a < axes.size(); ++a) {
    std::vector<SweepPoint> next;
    next.reserve(points.size() * axes[a].values.size());
    for (const SweepPoint& p : points) {
      for (size_t i = 0; i < axes[a].values.size(); ++i) {
        SweepPoint q = p;
        q[a] = i;
        next.push_back(std::move(q));
      }
    }
    points = std::move(next);
  }
  return points;
}

std::string SweepLabel(const std::vector<SweepAxis>& axes, const SweepPoint& point) {
  std::string label;
  for (size_t a = 0; a < axes.size(); ++a) {
    if (!label.empty()) {
      label += ',';
    }
    label += axes[a].key + "=" + ScalarLabel(axes[a].values[point[a]]);
  }
  return label;
}

bool FileExists(const std::string& path) { return std::ifstream(path).good(); }

}  // namespace

size_t ScenarioRun::Index(size_t machine, size_t row, size_t variant, size_t sweep) const {
  return ((machine * num_rows() + row) * num_variants() + variant) * num_sweeps() + sweep;
}

const Job& ScenarioRun::job(size_t machine, size_t row, size_t variant, size_t sweep) const {
  return jobs.at(Index(machine, row, variant, sweep));
}

const JobOutcome& ScenarioRun::outcome(size_t machine, size_t row, size_t variant,
                                       size_t sweep) const {
  return outcomes.at(Index(machine, row, variant, sweep));
}

const RepeatedResult& ScenarioRun::result(size_t machine, size_t row, size_t variant,
                                          size_t sweep) const {
  const JobOutcome& out = outcome(machine, row, variant, sweep);
  if (!out.ok()) {
    throw std::runtime_error(
        "scenario " + scenario.name + ": job " + scenario.machines[machine] + " x " +
        scenario.rows[row].label + " x " + scenario.variants[variant].label +
        (sweep_labels[sweep].empty() ? "" : " [" + sweep_labels[sweep] + "]") + " " +
        JobStatusName(out.status) + (out.message.empty() ? "" : ": " + out.message));
  }
  return out.result;
}

bool ExpandScenario(const Scenario& scenario, const ScenarioRunOptions& options, ScenarioRun* run,
                    ScenarioError* err) {
  *run = ScenarioRun{};
  run->scenario = scenario;
  run->campaign_options = options.campaign;
  run->repetitions = options.repetitions_override > 0
                         ? options.repetitions_override
                         : RepetitionsFromEnv(scenario.repetitions);
  run->base_seed = options.has_base_seed ? options.base_seed : scenario.base_seed;
  run->timeout_s = options.timeout_override_s >= 0 ? options.timeout_override_s : scenario.timeout_s;

  const WorkloadFamily* family = FindWorkloadFamily(scenario.family);
  if (family == nullptr) {
    err->Add(scenario.name, "unknown workload family \"" + scenario.family + "\"");
    return false;
  }

  const std::vector<SweepPoint> points = SweepPoints(scenario.sweep);
  run->sweep_labels.reserve(points.size());
  for (const SweepPoint& p : points) {
    run->sweep_labels.push_back(SweepLabel(scenario.sweep, p));
  }

  for (const std::string& machine : scenario.machines) {
    for (const ScenarioRow& row : scenario.rows) {
      // One workload model per (machine, row); variant and sweep jobs share
      // it (Workload::Setup is const, so concurrent jobs may).
      std::shared_ptr<const Workload> model(
          family->build(row.label, row.has_params ? &row.params : nullptr,
                        scenario.name + "/" + row.label, *err));
      if (model == nullptr) {
        return false;
      }
      for (const ScenarioVariant& variant : scenario.variants) {
        for (size_t s = 0; s < points.size(); ++s) {
          Job job;
          job.workload = row.label;
          job.variant = run->sweep_labels[s].empty()
                            ? variant.label
                            : variant.label + " [" + run->sweep_labels[s] + "]";
          job.config.machine = machine;
          job.config.scheduler = variant.scheduler;
          job.config.governor = variant.governor;
          if (scenario.has_config) {
            for (const auto& [key, value] : scenario.config.members) {
              ApplyConfigOverride(&job.config, key, value, scenario.name + "/config", err);
            }
          }
          for (size_t a = 0; a < scenario.sweep.size(); ++a) {
            ApplyConfigOverride(&job.config, scenario.sweep[a].key,
                                scenario.sweep[a].values[points[s][a]],
                                scenario.name + "/sweep", err);
          }
          if (options.parallel_workers >= 0) {
            job.config.parallel.workers = options.parallel_workers;
          }
          job.model = model;
          job.repetitions = run->repetitions;
          job.base_seed = run->base_seed;
          job.timeout_s = run->timeout_s;
          if (scenario.has_cluster) {
            ClusterSpec cluster;
            cluster.machines = scenario.cluster_machines;
            cluster.router = scenario.cluster_router;
            job.runner = [cluster](const ExperimentConfig& config, const Workload& workload) {
              return RunClusterExperiment(cluster, config, workload);
            };
          }
          run->jobs.push_back(std::move(job));
        }
      }
    }
  }
  return err->ok();
}

void ExecuteScenario(ScenarioRun* run) {
  Campaign campaign(run->scenario.name, run->campaign_options);
  for (Job& job : run->jobs) {
    campaign.Add(job);
  }
  run->outcomes = campaign.Run();
}

namespace {

// Table 4's speedup-band histogram.
struct Bands {
  int much_slower = 0;  // < -20%
  int slower = 0;       // [-20%, -5%)
  int same = 0;         // [-5%, 5%]
  int faster = 0;       // (5%, 20%]
  int much_faster = 0;  // > 20%
  int total = 0;

  void Add(double pct) {
    ++total;
    if (pct < -20.0) {
      ++much_slower;
    } else if (pct < -5.0) {
      ++slower;
    } else if (pct <= 5.0) {
      ++same;
    } else if (pct <= 20.0) {
      ++faster;
    } else {
      ++much_faster;
    }
  }

  void Print(const char* label) const {
    auto pct = [this](int n) { return total > 0 ? 100 * n / total : 0; };
    std::printf("  %-12s %4d (%2d%%) %4d (%2d%%) %4d (%2d%%) %4d (%2d%%) %4d (%2d%%)\n", label,
                much_slower, pct(much_slower), slower, pct(slower), same, pct(same), faster,
                pct(faster), much_faster, pct(much_faster));
  }
};

void PrintSpeedupTable(const ScenarioRun& run, size_t m, size_t s) {
  const Scenario& sc = run.scenario;
  const TableSpec& table = sc.table;
  const std::string row_fmt = "%-" + std::to_string(table.row_width) + "s";
  std::printf(row_fmt.c_str(), table.row_header.c_str());
  std::printf(" %16s", sc.variants[0].column.c_str());
  if (table.underload_column) {
    std::printf(" %7s", "u/s");
  }
  for (size_t v = 1; v < sc.variants.size(); ++v) {
    std::printf(" %10s", sc.variants[v].column.c_str());
  }
  std::printf("\n");
  for (size_t r = 0; r < run.num_rows(); ++r) {
    const RepeatedResult& base = run.result(m, r, 0, s);
    std::printf(row_fmt.c_str(), (sc.rows[r].label + table.row_suffix).c_str());
    std::printf(" %9.2fs %4.1f%%", base.mean_seconds, base.stddev_pct());
    if (table.underload_column) {
      std::printf(" %7.1f", base.mean_underload_per_s);
    }
    for (size_t v = 1; v < sc.variants.size(); ++v) {
      const RepeatedResult& rr = run.result(m, r, v, s);
      std::printf(" %10s",
                  FormatSpeedup(SpeedupPercent(base.mean_seconds, rr.mean_seconds)).c_str());
    }
    std::printf("\n");
  }
}

void PrintUnderloadTable(const ScenarioRun& run, size_t m, size_t s) {
  const Scenario& sc = run.scenario;
  const std::string row_fmt = "%-" + std::to_string(sc.table.row_width) + "s";
  std::printf(row_fmt.c_str(), sc.table.row_header.c_str());
  for (const ScenarioVariant& variant : sc.variants) {
    std::printf(" %12s", variant.label.c_str());
  }
  std::printf("\n");
  for (size_t r = 0; r < run.num_rows(); ++r) {
    std::printf(row_fmt.c_str(), (sc.rows[r].label + sc.table.row_suffix).c_str());
    for (size_t v = 0; v < sc.variants.size(); ++v) {
      std::printf(" %12.1f", run.result(m, r, v, s).runs[0].underload_per_s);
    }
    std::printf("\n");
  }
}

// Cluster serving layout: one line per row x variant with the request-latency
// tail, completion ratio, and mean fleet utilisation, averaged across reps.
void PrintLatencyTable(const ScenarioRun& run, size_t m, size_t s) {
  const Scenario& sc = run.scenario;
  const std::string row_fmt = "%-" + std::to_string(sc.table.row_width) + "s";
  std::printf(row_fmt.c_str(), sc.table.row_header.c_str());
  std::printf(" %-14s %9s %9s %9s %9s %7s %6s\n", "variant", "p50 ms", "p99 ms", "p99.9 ms",
              "mean ms", "compl", "util");
  for (size_t r = 0; r < run.num_rows(); ++r) {
    for (size_t v = 0; v < sc.variants.size(); ++v) {
      const RepeatedResult& rr = run.result(m, r, v, s);
      double p50 = 0, p99 = 0, p999 = 0, mean = 0, util = 0;
      uint64_t offered = 0, completed = 0;
      for (const ExperimentResult& er : rr.runs) {
        p50 += er.cluster.p50_ms;
        p99 += er.cluster.p99_ms;
        p999 += er.cluster.p999_ms;
        mean += er.cluster.mean_ms;
        offered += er.cluster.requests_offered;
        completed += er.cluster.requests_completed;
        double machine_util = 0;
        for (const ClusterMachineStats& machine : er.cluster.machines) {
          machine_util += machine.utilisation;
        }
        util += er.cluster.machines.empty() ? 0.0
                                            : machine_util / static_cast<double>(
                                                                 er.cluster.machines.size());
      }
      const double n = rr.runs.empty() ? 1.0 : static_cast<double>(rr.runs.size());
      std::printf(row_fmt.c_str(), (sc.rows[r].label + sc.table.row_suffix).c_str());
      std::printf(" %-14s %9.3f %9.3f %9.3f %9.3f %6.1f%% %5.1f%%\n",
                  sc.variants[v].label.c_str(), p50 / n, p99 / n, p999 / n, mean / n,
                  offered > 0 ? 100.0 * static_cast<double>(completed) /
                                    static_cast<double>(offered)
                              : 0.0,
                  100.0 * util / n);
    }
  }
}

// Energy-budget layout (docs/FAULTS.md): one line per row x variant with the
// mean package energy, runtime, energy-delay product, and the fraction of
// scheduler ticks spent over the power target, averaged across reps.
void PrintEnergyTable(const ScenarioRun& run, size_t m, size_t s) {
  const Scenario& sc = run.scenario;
  const std::string row_fmt = "%-" + std::to_string(sc.table.row_width) + "s";
  std::printf(row_fmt.c_str(), sc.table.row_header.c_str());
  std::printf(" %-14s %10s %9s %12s %9s\n", "variant", "energy J", "time s", "EDP J*s",
              "thr ticks");
  for (size_t r = 0; r < run.num_rows(); ++r) {
    for (size_t v = 0; v < sc.variants.size(); ++v) {
      const RepeatedResult& rr = run.result(m, r, v, s);
      double joules = 0, secs = 0, edp = 0;
      uint64_t throttle_ticks = 0;
      for (const ExperimentResult& er : rr.runs) {
        joules += er.energy_joules;
        secs += er.seconds();
        edp += er.edp();
        throttle_ticks += er.counters.budget_throttle_ticks;
      }
      const double n = rr.runs.empty() ? 1.0 : static_cast<double>(rr.runs.size());
      std::printf(row_fmt.c_str(), (sc.rows[r].label + sc.table.row_suffix).c_str());
      std::printf(" %-14s %10.1f %9.3f %12.1f %9.0f\n", sc.variants[v].label.c_str(), joules / n,
                  secs / n, edp / n, static_cast<double>(throttle_ticks) / n);
    }
  }
}

// Wakeup-latency layout (docs/PREDICTION.md): one line per row x variant with
// the p50/p99 wakeup latency and makespan, averaged across reps. Needs
// config.record_latency; without it every percentile prints as 0.
void PrintWakeupTable(const ScenarioRun& run, size_t m, size_t s) {
  const Scenario& sc = run.scenario;
  const std::string row_fmt = "%-" + std::to_string(sc.table.row_width) + "s";
  std::printf(row_fmt.c_str(), sc.table.row_header.c_str());
  std::printf(" %-16s %10s %10s %9s\n", "variant", "p50 us", "p99 us", "time s");
  for (size_t r = 0; r < run.num_rows(); ++r) {
    for (size_t v = 0; v < sc.variants.size(); ++v) {
      const RepeatedResult& rr = run.result(m, r, v, s);
      double p50 = 0, p99 = 0;
      for (const ExperimentResult& er : rr.runs) {
        p50 += er.p50_wakeup_latency_us;
        p99 += er.p99_wakeup_latency_us;
      }
      const double n = rr.runs.empty() ? 1.0 : static_cast<double>(rr.runs.size());
      std::printf(row_fmt.c_str(), (sc.rows[r].label + sc.table.row_suffix).c_str());
      std::printf(" %-16s %10.2f %10.2f %9.3f\n", sc.variants[v].label.c_str(), p50 / n, p99 / n,
                  rr.mean_seconds);
    }
  }
}

void PrintBandsTable(const ScenarioRun& run, size_t m, size_t s) {
  const Scenario& sc = run.scenario;
  for (size_t v = 1; v < sc.variants.size(); ++v) {
    Bands bands;
    for (size_t r = 0; r < run.num_rows(); ++r) {
      const double base_s = run.result(m, r, 0, s).runs[0].seconds();
      bands.Add(SpeedupPercent(base_s, run.result(m, r, v, s).runs[0].seconds()));
    }
    bands.Print(sc.variants[v].band_label.c_str());
  }
}

}  // namespace

void PrintScenarioHeader(const Scenario& scenario) {
  if (!scenario.title.empty()) {
    PrintHeader(scenario.title, scenario.description);
  }
}

void PrintScenarioTables(const ScenarioRun& run) {
  const Scenario& sc = run.scenario;
  if (sc.table.style == TableSpec::Style::kNone) {
    return;
  }
  for (size_t s = 0; s < run.num_sweeps(); ++s) {
    if (run.num_sweeps() > 1) {
      std::printf("\n=== sweep: %s ===\n", run.sweep_labels[s].c_str());
    }
    for (size_t m = 0; m < run.num_machines(); ++m) {
      PrintMachineBanner(MachineByName(sc.machines[m]));
      switch (sc.table.style) {
        case TableSpec::Style::kSpeedup:
          PrintSpeedupTable(run, m, s);
          break;
        case TableSpec::Style::kUnderload:
          PrintUnderloadTable(run, m, s);
          break;
        case TableSpec::Style::kBands:
          PrintBandsTable(run, m, s);
          break;
        case TableSpec::Style::kLatency:
          PrintLatencyTable(run, m, s);
          break;
        case TableSpec::Style::kEnergy:
          PrintEnergyTable(run, m, s);
          break;
        case TableSpec::Style::kWakeup:
          PrintWakeupTable(run, m, s);
          break;
        case TableSpec::Style::kNone:
          break;
      }
    }
  }
}

std::string ResolveScenarioPath(const std::string& name) {
  if (FileExists(name)) {
    return name;
  }
  std::vector<std::string> candidates;
  if (const char* dir = std::getenv("NESTSIM_SCENARIO_DIR")) {
    candidates.push_back(std::string(dir) + "/" + name);
  }
  candidates.push_back("scenarios/" + name);
  candidates.push_back("../scenarios/" + name);
  candidates.push_back("../../scenarios/" + name);
  for (const std::string& candidate : candidates) {
    if (FileExists(candidate)) {
      return candidate;
    }
  }
  return name;
}

int RunScenarioFileMain(const std::string& name, const ScenarioRunOptions& options) {
  const std::string path = ResolveScenarioPath(name);
  Scenario scenario;
  ScenarioError err;
  if (!LoadScenario(path, &scenario, &err)) {
    std::fprintf(stderr, "%s\n", err.Join().c_str());
    return 2;
  }
  ScenarioRun run;
  if (!ExpandScenario(scenario, options, &run, &err)) {
    std::fprintf(stderr, "%s\n", err.Join().c_str());
    return 2;
  }
  PrintScenarioHeader(scenario);
  ExecuteScenario(&run);
  try {
    PrintScenarioTables(run);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  for (const JobOutcome& outcome : run.outcomes) {
    if (!outcome.ok()) {
      return 1;
    }
  }
  return 0;
}

}  // namespace nestsim
