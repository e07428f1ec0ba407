#include "src/core/machine_model.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "src/check/invariant_checker.h"
#include "src/hw/machine_spec.h"
#include "src/metrics/latency.h"
#include "src/metrics/stats.h"
#include "src/obs/perfetto_trace.h"

namespace nestsim {

namespace {

// The directory Perfetto traces go to: the config field wins, then the
// NESTSIM_TRACE environment variable; empty disables capture.
std::string TraceDir(const ExperimentConfig& config) {
  if (!config.trace_dir.empty()) {
    return config.trace_dir;
  }
  const char* env = std::getenv("NESTSIM_TRACE");
  return env != nullptr ? std::string(env) : std::string();
}

std::string SanitizeStem(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (const char c : in) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    out += ok ? c : '-';
  }
  return out;
}

// "<dir>/<stem>[-m<index>]-seed<seed>.json", the stem being trace_label or
// "<machine>-<scheduler>-<governor>"; empty when capture is off.
std::string PerfettoPath(const ExperimentConfig& config, int fleet_index) {
  const std::string dir = TraceDir(config);
  if (dir.empty()) {
    return std::string();
  }
  std::string stem = config.trace_label;
  if (stem.empty()) {
    stem = config.machine;
    stem += '-';
    stem += SchedulerKindName(config.scheduler);
    stem += '-';
    stem += config.governor;
  }
  if (fleet_index >= 0) {
    stem += "-m" + std::to_string(fleet_index);
  }
  return dir + "/" + SanitizeStem(stem) + "-seed" + std::to_string(config.seed) + ".json";
}

}  // namespace

MachineModel::MachineModel(Engine* engine, const ExperimentConfig& config, int fleet_index)
    : hw(engine, MachineByName(config.machine)),
      policy(MakeSchedulerPolicy(config)),
      governor(MakeGovernor(config.governor, config.power)),
      kernel(engine, &hw, policy.get(), governor.get(), config.kernel),
      fleet_index_(fleet_index),
      perfetto_path_(PerfettoPath(config, fleet_index)),
      underload_(&kernel, config.record_underload_series),
      freq_(&kernel, FreqBucketEdgesFor(hw.spec())),
      counters_(&kernel) {
  kernel.AddObserver(&completion_);
  kernel.AddObserver(&underload_);
  kernel.AddObserver(&freq_);
  kernel.AddObserver(&counters_);
  if (config.record_trace) {
    trace_ = std::make_unique<TraceRecorder>(&kernel);
    kernel.AddObserver(trace_.get());
  }
  if (!perfetto_path_.empty()) {
    perfetto_ = std::make_unique<PerfettoTraceWriter>(&kernel);
    kernel.AddObserver(perfetto_.get());
  }
  if (config.record_latency) {
    latency_ = std::make_unique<WakeupLatencyTracker>();
    kernel.AddObserver(latency_.get());
  }
  if (CheckInvariantsEnabled(config)) {
    checker_ = std::make_unique<InvariantChecker>(&kernel);
    kernel.AddObserver(checker_.get());
  }
  if (config.fault.any()) {
    resilience_ = std::make_unique<ResilienceRecorder>();
    kernel.AddObserver(resilience_.get());
  }
  if (config.predict.oracle_record_plan != nullptr) {
    const SimDuration window =
        static_cast<SimDuration>(config.predict.oracle_window_ms * static_cast<double>(kMillisecond));
    oracle_recorder_ = std::make_unique<OracleRecorder>(
        &kernel, config.predict.oracle_record_plan.get(), window);
    kernel.AddObserver(oracle_recorder_.get());
  }
  if (config.predict.decision_trace != nullptr) {
    decisions_ = std::make_unique<DecisionTraceRecorder>(&kernel, config.seed,
                                                         config.predict.decision_trace.get());
    kernel.AddObserver(decisions_.get());
  }
}

MachineModel::~MachineModel() = default;

const std::vector<double>& MachineModel::wakeup_latencies_us() const {
  static const std::vector<double> kNone;
  return latency_ != nullptr ? latency_->samples_us() : kNone;
}

std::string MachineModel::InvariantReport() const {
  return checker_ != nullptr && !checker_->ok() ? checker_->Report() : std::string();
}

void MachineModel::AddMetricsTo(SimTime end, ExperimentResult* result) {
  const int cpu_offset = std::max(fleet_index_, 0) * hw.topology().num_cpus();
  result->energy_joules += hw.EnergyJoules();
  result->context_switches += kernel.context_switches();
  result->migrations += kernel.total_migrations();
  result->tasks_created += static_cast<int>(kernel.tasks().size());
  for (const auto& [tag, when] : completion_.tag_last_exit()) {
    auto [it, inserted] = result->tag_makespan.try_emplace(tag, when);
    if (!inserted) {
      it->second = std::max(it->second, when);
    }
  }
  const FreqHistogram hist = freq_.Snapshot(end);
  if (result->freq_hist.edges.empty()) {
    result->freq_hist = hist;
  } else {
    for (size_t b = 0; b < hist.seconds.size(); ++b) {
      result->freq_hist.seconds[b] += hist.seconds[b];
    }
  }
  for (const int cpu : underload_.CpusEverUsed()) {
    result->cpus_used.push_back(cpu_offset + cpu);
  }
  if (fleet_index_ <= 0) {
    result->underload_series = underload_.series();
  }
  result->counters.Add(counters_.Finish(end));
  if (resilience_ != nullptr) {
    result->resilience.Add(resilience_->Finish());
  }
  if (const auto* smove = dynamic_cast<const SmovePolicy*>(policy.get())) {
    result->smove_moves_armed += smove->moves_armed();
    result->smove_moves_fired += smove->moves_fired();
  }
  if (trace_ != nullptr) {
    for (ExecSegment segment : trace_->Finish(end)) {
      segment.cpu += cpu_offset;
      result->trace.push_back(segment);
    }
  }
  if (perfetto_ != nullptr) {
    perfetto_->Finish(end);
    std::error_code ec;
    std::filesystem::create_directories(std::filesystem::path(perfetto_path_).parent_path(), ec);
    if (!perfetto_->WriteFile(perfetto_path_)) {
      std::fprintf(stderr, "[trace] cannot write %s\n", perfetto_path_.c_str());
    } else if (result->trace_file.empty()) {
      result->trace_file = perfetto_path_;
    }
  }
}

ExperimentResult RunMachines(const ExperimentConfig& config, DomainGroup* group,
                             const std::vector<std::unique_ptr<MachineModel>>& machines,
                             std::function<bool()> live) {
  DomainGroup::RunOptions options;
  options.time_limit = config.time_limit;
  options.live = std::move(live);
  options.should_abort = config.should_abort;
  if (CheckInvariantsEnabled(config)) {
    options.healthy = [&machines] {
      for (const auto& machine : machines) {
        if (!machine->InvariantReport().empty()) {
          return false;
        }
      }
      return true;
    };
  }

  ExperimentResult result;
  result.aborted = group->Run(options).aborted;
  for (const auto& machine : machines) {
    const std::string report = machine->InvariantReport();
    if (!report.empty()) {
      const int index = machine->fleet_index();
      const std::string where =
          index >= 0 ? "cluster machine " + std::to_string(index) + ", " : std::string();
      throw std::runtime_error("invariant violation (" + where + config.machine + ", " +
                               SchedulerKindKey(config.scheduler) + "/" + config.governor +
                               ", seed " + std::to_string(config.seed) + "):\n" + report);
    }
  }
  result.hit_time_limit = options.live() && !result.aborted;

  // Every domain clock lines up on the global stop time before any metric is
  // read: lazy integrators (hardware energy, PELT) integrate "up to Now()",
  // and each domain stopped at its own last fired event.
  group->AdvanceAllTo(group->Now());
  SimTime last_exit = 0;
  for (const auto& machine : machines) {
    last_exit = std::max(last_exit, machine->last_exit());
  }
  const SimTime end = last_exit > 0 ? last_exit : group->Now();
  result.makespan = end;
  result.events_fired = group->TotalEventsFired();

  std::vector<double> underload;
  LatencyDistribution wakeups;
  for (const auto& machine : machines) {
    machine->AddMetricsTo(end, &result);
    underload.push_back(machine->UnderloadPerSecond(end));
    for (const double us : machine->wakeup_latencies_us()) {
      wakeups.Add(us);
    }
  }
  result.underload_per_s = Mean(underload);
  result.p50_wakeup_latency_us = wakeups.PercentileAt(50.0);
  result.p99_wakeup_latency_us = wakeups.PercentileAt(99.0);
  return result;
}

}  // namespace nestsim
