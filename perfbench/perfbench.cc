// The repository benchmark (README.md in this directory).
//
// Runs one workload — a slice of a committed scenario grid — as a closed loop
// of whole passes over its jobs, one job at a time, through the public
// scenario API (LoadScenario, ExpandScenario, ExecuteScenario), and checks
// every job of every pass against goldens written by RecordBaseline
// (CheckBaseline plus a per-job comparison of the deterministic fields).
// --trace 1 alternates those passes with traced passes whose Job::runner
// wrappers count and time the calls into each layer.
//
// The last stdout line is the result: {"correct", "attempted", "failed",
// "metrics"}; the lines before it list every metric by name and a manifest
// of the host and build that produced it.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/traced_runner.h"
#include "src/campaign/jsonl_sink.h"
#include "src/scenario/baseline.h"
#include "src/scenario/runner.h"
#include "src/scenario/scenario.h"
#include "src/sim/random.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using nestsim::ExperimentConfig;
using nestsim::ExperimentResult;
using nestsim::Job;
using nestsim::JobOutcome;
using nestsim::ScenarioRun;
using perfbench::NowNs;
using perfbench::RunTrace;

// LoadScenario + ExpandScenario rounds after every timed pass. setup_s is the
// median of all of them, so like the pass timings it samples the host over
// the whole run rather than in its first few milliseconds.
constexpr int kSetupRoundsPerPass = 20;

struct WorkloadDef {
  std::string name;
  std::string scenario;               // file under <root>/scenarios
  std::vector<std::string> machines;  // machine slice; empty keeps the scenario's
  bool add_cfs;                       // put a CFS-schedutil variant before the committed ones
  int pdes_workers;                   // config.parallel.workers of every job
  std::string golden;                 // golden stem; rack_pdes checks rack's goldens
  uint64_t recorded_seed;             // the committed scenario's base_seed; has goldens
  uint64_t held_out_seed;             // never recorded: for claims on unseen input
};

const std::vector<WorkloadDef>& Workloads() {
  static const std::vector<WorkloadDef> defs = {
      {"nas", "fig12.json", {"intel-6130-2s", "intel-6130-4s"}, false, 0, "nas", 1, 101},
      {"phoronix", "table4.json", {"intel-6130-2s"}, false, 0, "phoronix", 17, 117},
      {"rack", "pdes_scaling.json", {}, true, 0, "rack", 1, 101},
      {"rack_pdes", "pdes_scaling.json", {}, true, 2, "rack", 1, 101},
  };
  return defs;
}

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& def : Workloads()) {
    if (def.name == name) {
      return &def;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Small helpers

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// Linear interpolation between closest ranks; `q` in [0, 1].
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string Hex64(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool ReadFile(const std::string& path, std::string* text) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *text = ss.str();
  return true;
}

// The golden/JSONL lines of a run without their host-time field: exactly the
// deterministic per-job record CheckBaseline compares.
std::vector<std::string> DeterministicRecords(const std::string& jsonl) {
  static const std::string kWall = ",\"wall_s\":";
  std::vector<std::string> records;
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    const size_t at = line.find(kWall);
    if (at != std::string::npos) {
      line.erase(at, line.find_first_of(",}", at + kWall.size()) - at);
    }
    records.push_back(std::move(line));
  }
  return records;
}

uint64_t CombinedDigest(const std::vector<std::string>& records) {
  std::string all;
  for (const std::string& r : records) {
    all += r;
    all += '\n';
  }
  return nestsim::Fnv1a64(all);
}

// Pins what gets timed: no invariant checker (ctest exports it), no Perfetto
// capture, no JSONL sink, and no environment override of the repetition or
// worker counts.
void PinEnvironment() {
  setenv("NESTSIM_CHECK_INVARIANTS", "0", 1);
  for (const char* name : {"NESTSIM_TRACE", "NESTSIM_JSONL", "NESTSIM_REPS", "NESTSIM_JOBS"}) {
    unsetenv(name);
  }
}

// ---------------------------------------------------------------------------
// Set-up: the scenario parsed, sliced and expanded into jobs

struct SetUpResult {
  ScenarioRun run;
  double load_s = 0.0;
  double expand_s = 0.0;
};

bool SetUp(const WorkloadDef& def, const std::string& root, uint64_t seed, SetUpResult* out,
           std::string* error) {
  nestsim::Scenario scenario;
  nestsim::ScenarioError err;
  const int64_t t0 = NowNs();
  if (!nestsim::LoadScenario(root + "/scenarios/" + def.scenario, &scenario, &err)) {
    *error = err.Join();
    return false;
  }
  const int64_t t1 = NowNs();
  if (!def.machines.empty()) {
    scenario.machines = def.machines;
  }
  if (def.add_cfs) {
    nestsim::ScenarioVariant cfs;
    cfs.label = cfs.column = cfs.band_label = "CFS sched";
    scenario.variants.insert(scenario.variants.begin(), cfs);
  }
  scenario.name = def.golden;

  nestsim::ScenarioRunOptions options;
  options.repetitions_override = 1;
  options.has_base_seed = true;
  options.base_seed = seed;
  options.timeout_override_s = 0.0;
  options.parallel_workers = def.pdes_workers;
  options.campaign.jobs = 1;
  options.campaign.progress = false;
  options.campaign.jsonl_path.clear();
  const int64_t t2 = NowNs();
  out->run = ScenarioRun();
  if (!nestsim::ExpandScenario(scenario, options, &out->run, &err)) {
    *error = err.Join();
    return false;
  }
  const int64_t t3 = NowNs();
  out->load_s = Seconds(t1 - t0);
  out->expand_s = Seconds(t3 - t2);
  return true;
}

std::string GoldenDir(const std::string& root, uint64_t seed) {
  return root + "/perfbench/goldens/seed-" + std::to_string(seed);
}

// ---------------------------------------------------------------------------
// Spans of the traced run, kept in memory and written once at the end

struct Span {
  std::string name;
  long job;  // -1 for spans that are not about one job
  int64_t start_ns;
  int64_t end_ns;
};

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  if (spans.empty()) {
    return true;
  }
  int64_t origin = spans.front().start_ns;
  for (const Span& s : spans) {
    origin = std::min(origin, s.start_ns);
  }
  std::error_code ec;
  std::filesystem::create_directories(std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path, std::ios::trunc);
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i > 0 ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,"
        << "\"tid\":1,\"ts\":" << Num(static_cast<double>(s.start_ns - origin) * 1e-3)
        << ",\"dur\":" << Num(static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
        << ",\"args\":{\"job\":" << s.job << "}}";
  }
  out << "\n]}\n";
  out.close();
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// One workload's closed loop

// Deterministic per-pass totals: identical on every pass of one seed.
struct PassCounts {
  double sim_s = 0.0;
  uint64_t events = 0;
  uint64_t context_switches = 0;
  uint64_t migrations = 0;
  uint64_t freq_ramps = 0;
  uint64_t fork_placements = 0;
  uint64_t wake_placements = 0;
  uint64_t nest_hits = 0;
  uint64_t nest_base = 0;
  uint64_t requests = 0;
  uint64_t requests_completed = 0;
};

PassCounts CountPass(const ScenarioRun& run) {
  PassCounts c;
  for (size_t i = 0; i < run.jobs.size(); ++i) {
    if (!run.outcomes[i].ok()) {
      continue;
    }
    const bool nest = run.jobs[i].config.scheduler == nestsim::SchedulerKind::kNest;
    for (const ExperimentResult& r : run.outcomes[i].result.runs) {
      c.sim_s += r.seconds();
      c.events += r.events_fired;
      c.context_switches += r.context_switches;
      c.migrations += r.migrations;
      c.freq_ramps += r.counters.freq_ramps_up + r.counters.freq_ramps_down;
      c.fork_placements += r.counters.fork_placements;
      c.wake_placements += r.counters.wake_placements;
      if (nest) {
        c.nest_hits += r.counters.NestHits();
        c.nest_base += r.counters.NestHits() + r.counters.NestMisses();
      }
      c.requests += r.cluster.requests_offered;
      c.requests_completed += r.cluster.requests_completed;
    }
  }
  return c;
}

enum class Pass { kWarmUp, kTimed, kTraced };

class WorkloadBench {
 public:
  WorkloadBench(ScenarioRun run, uint64_t order_seed, std::vector<std::string> golden,
                std::string golden_dir)
      : run_(std::move(run)), golden_(std::move(golden)), golden_dir_(std::move(golden_dir)) {
    // The job order is part of the input the seed makes: Fisher-Yates over
    // the expansion order with the repository's own generator.
    order_.resize(run_.jobs.size());
    for (size_t i = 0; i < order_.size(); ++i) {
      order_[i] = i;
    }
    nestsim::Rng rng(order_seed);
    for (size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng.NextBounded(i)]);
    }
    timed_ = run_;
    for (size_t k = 0; k < order_.size(); ++k) {
      timed_.jobs[k] = run_.jobs[order_[k]];
    }
    traced_ = timed_;
    for (size_t k = 0; k < order_.size(); ++k) {
      InstallTracedRunner(&traced_.jobs[k], static_cast<long>(order_[k]));
    }
  }
  // The traced runners hold `this`.
  WorkloadBench(const WorkloadBench&) = delete;
  WorkloadBench& operator=(const WorkloadBench&) = delete;

  // Executes and verifies one pass. Returns ExecuteScenario's wall time.
  // A warm-up pass is checked and counted but its timings are dropped.
  double RunPass(Pass kind) {
    const bool traced = kind == Pass::kTraced;
    ScenarioRun& exec = traced ? traced_ : timed_;
    const int64_t start = NowNs();
    nestsim::ExecuteScenario(&exec);
    const int64_t end = NowNs();
    spans_.push_back({traced ? "pass.traced" : kind == Pass::kWarmUp ? "pass.warm_up" : "pass",
                      -1, start, end});
    run_.outcomes.assign(run_.jobs.size(), JobOutcome());
    for (size_t k = 0; k < order_.size(); ++k) {
      run_.outcomes[order_[k]] = std::move(exec.outcomes[k]);
    }
    Verify();
    const double wall = Seconds(end - start);
    if (kind == Pass::kWarmUp) {
      counts_ = CountPass(run_);
      return wall;
    }
    if (traced) {
      ++traced_passes_;
      traced_wall_s_ += wall;
      return wall;
    }
    ++untraced_passes_;
    untraced_wall_s_ += wall;
    job_total_s_.resize(run_.outcomes.size(), 0.0);
    double job_sum = 0.0;
    for (size_t i = 0; i < run_.outcomes.size(); ++i) {
      job_total_s_[i] += run_.outcomes[i].wall_seconds;
      job_sum += run_.outcomes[i].wall_seconds;
    }
    job_wall_s_ += job_sum;
    overhead_s_.push_back(wall - job_sum);
    return wall;
  }

  bool has_golden() const { return !golden_.empty(); }
  int attempted() const { return attempted_; }
  int failed() const { return failed_; }
  bool digests_agree() const { return digests_agree_; }
  const std::string& digest() const { return digest_; }
  const std::vector<std::string>& problems() const { return problems_; }
  const std::vector<Span>& spans() const { return spans_; }

  int untraced_passes() const { return untraced_passes_; }
  int traced_passes() const { return traced_passes_; }
  size_t job_samples() const { return job_total_s_.size() * untraced_passes_; }
  const PassCounts& counts() const { return counts_; }
  // Each job's mean host milliseconds over the timed passes.
  std::vector<double> job_mean_ms() const {
    std::vector<double> ms;
    for (double total : job_total_s_) {
      ms.push_back(total * 1e3 / untraced_passes_);
    }
    return ms;
  }
  const std::vector<double>& overhead_s() const { return overhead_s_; }
  const std::vector<RunTrace>& traced_runs() const { return traced_runs_; }
  const std::vector<double>& cluster_run_ms() const { return cluster_run_ms_; }
  double untraced_wall_s() const { return untraced_wall_s_; }
  double traced_wall_s() const { return traced_wall_s_; }
  double job_wall_s() const { return job_wall_s_; }

 private:
  void InstallTracedRunner(Job* job, long index) {
    if (job->runner) {
      // RunClusterExperiment builds its stacks internally: span only.
      auto inner = job->runner;
      job->runner = [this, index, inner](const ExperimentConfig& config,
                                         const nestsim::Workload& workload) {
        const int64_t start = NowNs();
        ExperimentResult result = inner(config, workload);
        const int64_t end = NowNs();
        spans_.push_back({"run", index, start, end});
        cluster_run_ms_.push_back(static_cast<double>(end - start) * 1e-6);
        return result;
      };
      return;
    }
    job->runner = [this, index](const ExperimentConfig& config,
                                const nestsim::Workload& workload) {
      RunTrace t;
      ExperimentResult result = perfbench::TracedRunExperiment(config, workload, &t);
      spans_.push_back({"run", index, t.start_ns, t.end_ns});
      spans_.push_back({"core.stack_build", index, t.start_ns, t.stack_built_ns});
      spans_.push_back({"workloads.setup", index, t.stack_built_ns, t.setup_done_ns});
      spans_.push_back({"sim.pump", index, t.setup_done_ns, t.end_ns});
      traced_runs_.push_back(t);
      return result;
    };
  }

  // Every job of the pass against its golden record (or, for a seed with no
  // golden, against the first pass), plus CheckBaseline's own verdict.
  void Verify() {
    const std::vector<std::string> records =
        DeterministicRecords(nestsim::BaselineJsonl(run_));
    const std::string digest = Hex64(CombinedDigest(records));
    if (digest_.empty()) {
      digest_ = digest;
      if (golden_.empty()) {
        reference_ = records;
      }
    }
    digests_agree_ = digests_agree_ && digest == digest_;
    const std::vector<std::string>& expected = golden_.empty() ? reference_ : golden_;

    int bad = 0;
    for (size_t i = 0; i < run_.jobs.size(); ++i) {
      const bool matches = expected.size() == records.size() && records[i + 1] == expected[i + 1];
      if (!run_.outcomes[i].ok() || !matches) {
        ++bad;
        if (problems_.size() < 5) {
          problems_.push_back("job " + std::to_string(i) + " (" + run_.jobs[i].config.machine +
                              " x " + run_.jobs[i].workload + " x " + run_.jobs[i].variant +
                              "): " +
                              (run_.outcomes[i].ok() ? std::string("differs from golden")
                                                     : run_.outcomes[i].message));
        }
      }
    }
    if (!golden_.empty()) {
      const nestsim::BaselineCheck check = nestsim::CheckBaseline(run_, golden_dir_);
      if (!check.ok()) {
        for (size_t p = 0; p < check.problems.size() && problems_.size() < 10; ++p) {
          problems_.push_back(check.problems[p]);
        }
        if (bad == 0) {
          bad = static_cast<int>(run_.jobs.size());  // grid-level mismatch
        }
      }
    }
    attempted_ += static_cast<int>(run_.jobs.size());
    failed_ += bad;
  }

  ScenarioRun run_;     // expansion order: what goldens and CheckBaseline see
  ScenarioRun timed_;   // the same jobs in the seed's execution order
  ScenarioRun traced_;  // timed_ with layer-tracing runners installed
  std::vector<size_t> order_;
  std::vector<std::string> golden_;  // deterministic records; empty = no golden
  std::vector<std::string> reference_;
  std::string golden_dir_;

  int attempted_ = 0;
  int failed_ = 0;
  std::string digest_;
  bool digests_agree_ = true;
  std::vector<std::string> problems_;

  int untraced_passes_ = 0;
  int traced_passes_ = 0;
  double untraced_wall_s_ = 0.0;
  double traced_wall_s_ = 0.0;
  double job_wall_s_ = 0.0;
  PassCounts counts_;
  std::vector<double> job_total_s_;  // per job, in expansion order
  std::vector<double> overhead_s_;
  std::vector<RunTrace> traced_runs_;
  std::vector<double> cluster_run_ms_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::vector<Metric> EndToEndMetrics(const WorkloadBench& bench, double setup_s) {
  return {
      {"sim_s_per_host_s", Ratio(bench.counts().sim_s * bench.untraced_passes(),
                                 bench.untraced_wall_s()),
       "s/s"},
      {"job_ms.p50", Quantile(bench.job_mean_ms(), 0.50), "ms"},
      {"job_ms.p90", Quantile(bench.job_mean_ms(), 0.90), "ms"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

std::vector<Metric> PerLayerMetrics(const WorkloadBench& bench, const std::vector<double>& load_s,
                                    const std::vector<double>& expand_s) {
  const PassCounts& c = bench.counts();
  const double traced = std::max(1, bench.traced_passes());

  RunTrace sum;
  std::vector<double> stack_build_us;
  std::vector<double> setup_us;
  int64_t pump_ns = 0;
  int64_t pump_self_ns = 0;
  uint64_t pump_events = 0;
  for (const RunTrace& t : bench.traced_runs()) {
    sum.cfs_fork.Add(t.cfs_fork);
    sum.cfs_wake.Add(t.cfs_wake);
    sum.nest_fork.Add(t.nest_fork);
    sum.nest_wake.Add(t.nest_wake);
    sum.policy_hooks.Add(t.policy_hooks);
    sum.governor_requests.Add(t.governor_requests);
    sum.observer_callbacks.Add(t.observer_callbacks);
    stack_build_us.push_back(static_cast<double>(t.stack_build_ns()) * 1e-3);
    setup_us.push_back(static_cast<double>(t.workload_setup_ns()) * 1e-3);
    pump_ns += t.pump_ns();
    pump_self_ns += t.pump_self_ns();
    pump_events += t.pump_events;
  }
  auto per_pass = [traced](uint64_t calls) { return static_cast<double>(calls) / traced; };
  const double untraced_per_pass = Ratio(bench.untraced_wall_s(), bench.untraced_passes());
  const double traced_per_pass = Ratio(bench.traced_wall_s(), bench.traced_passes());

  return {
      {"scenario.load_s", Quantile(load_s, 0.5), "s"},
      {"scenario.expand_s", Quantile(expand_s, 0.5), "s"},
      {"campaign.jobs", static_cast<double>(bench.job_samples()), "count"},
      {"campaign.overhead_s", Quantile(bench.overhead_s(), 0.5), "s"},
      {"core.stack_build_us", Quantile(stack_build_us, 0.5), "us"},
      {"workloads.setup_us", Quantile(setup_us, 0.5), "us"},
      {"sim.events", static_cast<double>(c.events), "count"},
      {"sim.host_ns_per_event", 1e9 * Ratio(bench.job_wall_s(),
                                            static_cast<double>(c.events) *
                                                bench.untraced_passes()),
       "ns"},
      {"sim.pump_s", Seconds(pump_ns) / traced, "s"},
      {"sim.pump.self_s", Seconds(pump_self_ns) / traced, "s"},
      {"sim.pump.self_ns_per_event",
       Ratio(static_cast<double>(pump_self_ns), static_cast<double>(pump_events)), "ns"},
      {"kernel.context_switches", static_cast<double>(c.context_switches), "count"},
      {"kernel.migrations", static_cast<double>(c.migrations), "count"},
      {"hw.freq_ramps", static_cast<double>(c.freq_ramps), "count"},
      {"governors.request.calls", per_pass(sum.governor_requests.calls), "count"},
      {"governors.request.ns_per_call", sum.governor_requests.NsPerCall(), "ns"},
      {"cfs.fork.calls", per_pass(sum.cfs_fork.calls), "count"},
      {"cfs.fork.ns_per_call", sum.cfs_fork.NsPerCall(), "ns"},
      {"cfs.wake.calls", per_pass(sum.cfs_wake.calls), "count"},
      {"cfs.wake.ns_per_call", sum.cfs_wake.NsPerCall(), "ns"},
      {"nest.fork.calls", per_pass(sum.nest_fork.calls), "count"},
      {"nest.fork.ns_per_call", sum.nest_fork.NsPerCall(), "ns"},
      {"nest.wake.calls", per_pass(sum.nest_wake.calls), "count"},
      {"nest.wake.ns_per_call", sum.nest_wake.NsPerCall(), "ns"},
      {"nest.search_hit_ratio",
       Ratio(static_cast<double>(c.nest_hits), static_cast<double>(c.nest_base)), "ratio"},
      {"nest.search_base", static_cast<double>(c.nest_base), "count"},
      {"policy.hooks.calls", per_pass(sum.policy_hooks.calls), "count"},
      {"policy.hooks.s", Seconds(sum.policy_hooks.ns) / traced, "s"},
      {"policy.fork_placements", static_cast<double>(c.fork_placements), "count"},
      {"policy.wake_placements", static_cast<double>(c.wake_placements), "count"},
      {"obs.callbacks", per_pass(sum.observer_callbacks.calls), "count"},
      {"obs.s", Seconds(sum.observer_callbacks.ns) / traced, "s"},
      {"obs.ns_per_callback", sum.observer_callbacks.NsPerCall(), "ns"},
      {"cluster.requests", static_cast<double>(c.requests), "count"},
      {"cluster.requests_completed", static_cast<double>(c.requests_completed), "count"},
      {"cluster.run_ms", Quantile(bench.cluster_run_ms(), 0.5), "ms"},
      {"trace.overhead_ratio", Ratio(traced_per_pass, untraced_per_pass), "ratio"},
      {"failed_ratio", Ratio(bench.failed(), bench.attempted()), "ratio"},
  };
}

void PrintMetrics(const char* heading, const std::vector<Metric>& metrics) {
  std::printf("%s\n", heading);
  for (const Metric& m : metrics) {
    std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

// ---------------------------------------------------------------------------
// Command line

struct Options {
  std::string mode = "run";  // run | record | self-test
  std::string workload;
  uint64_t seed = 0;
  bool has_workload_seed = false;
  uint64_t workload_seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";
  std::string spans;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
               "                 [--workload-seed S] [--spans PATH] [--root DIR]\n"
               "                 [--commit TEXT] [--source-digest TEXT]\n"
               "       perfbench --record [--root DIR]\n"
               "       perfbench --self-test [--root DIR]\n"
               "workloads: nas, phoronix, rack, rack_pdes\n");
}

bool ParseU64(const char* text, uint64_t* out) {
  if (text == nullptr || *text < '0' || *text > '9') {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0') {
    return false;
  }
  *out = v;
  return true;
}

bool ParseOptions(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    uint64_t n = 0;
    if (arg == "--record" || arg == "--self-test") {
      opt->mode = arg.substr(2);
      continue;
    }
    if (value == nullptr) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", arg.c_str());
      return false;
    }
    ++i;
    if (arg == "--workload") {
      opt->workload = value;
    } else if (arg == "--seed" && ParseU64(value, &n)) {
      opt->seed = n;
    } else if (arg == "--workload-seed" && ParseU64(value, &n)) {
      opt->has_workload_seed = true;
      opt->workload_seed = n;
    } else if (arg == "--seconds" && ParseU64(value, &n) && n >= 1 && n <= 3600) {
      opt->seconds = static_cast<double>(n);
    } else if (arg == "--trace" && (std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0)) {
      opt->trace = value[0] == '1';
    } else if (arg == "--root") {
      opt->root = value;
    } else if (arg == "--spans") {
      opt->spans = value;
    } else if (arg == "--commit") {
      opt->commit = value;
    } else if (arg == "--source-digest") {
      opt->source_digest = value;
    } else {
      std::fprintf(stderr, "perfbench: bad option %s %s\n", arg.c_str(), value);
      return false;
    }
  }
  return true;
}

std::string ManifestJson(const Options& opt, const WorkloadDef& def, uint64_t workload_seed,
                         bool golden, const std::string& digest) {
  char host[256] = "unknown";
  gethostname(host, sizeof(host) - 1);
  double load[3] = {0.0, 0.0, 0.0};
  if (getloadavg(load, 3) != 3) {
    load[0] = load[1] = load[2] = -1.0;
  }
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::string out = "{\"manifest\": {";
  out += "\"workload\": \"" + def.name + "\", \"seed\": " + std::to_string(opt.seed);
  out += ", \"workload_seed\": " + std::to_string(workload_seed);
  out += std::string(", \"golden\": ") + (golden ? "true" : "false");
  out += ", \"digest\": \"" + digest + "\"";
  out += ", \"trace\": " + std::to_string(opt.trace ? 1 : 0);
  out += ", \"seconds\": " + Num(opt.seconds);
  out += ", \"host\": \"" + nestsim::JsonEscape(host) + "\"";
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"loadavg\": [" + Num(load[0]) + ", " + Num(load[1]) + ", " + Num(load[2]) + "]";
  out += ", \"compiler\": \"" + nestsim::JsonEscape(__VERSION__) + "\"";
  out += ", \"build_type\": \"" + nestsim::JsonEscape(build_type) + "\"";
  out += std::string(", \"release\": ") + (build_type == "Release" ? "true" : "false");
  out += ", \"commit\": \"" + nestsim::JsonEscape(opt.commit) + "\"";
  out += ", \"source_digest\": \"" + nestsim::JsonEscape(opt.source_digest) + "\"";
  return out + "}}";
}

// ---------------------------------------------------------------------------
// Modes

int RunWorkload(const Options& opt) {
  const WorkloadDef* def = FindWorkload(opt.workload);
  if (def == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload \"%s\"\n", opt.workload.c_str());
    Usage();
    return 2;
  }
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: WARNING: %s build; timings are only comparable between "
                 "Release builds\n", PERFBENCH_BUILD_TYPE);
  }
  const uint64_t workload_seed = opt.has_workload_seed ? opt.workload_seed : def->recorded_seed;

  std::vector<Span> setup_spans;
  std::vector<double> load_s;
  std::vector<double> expand_s;
  std::vector<double> setup_s;
  auto set_up = [&](SetUpResult* out) {
    std::string error;
    const int64_t start = NowNs();
    if (!SetUp(*def, opt.root, workload_seed, out, &error)) {
      std::fprintf(stderr, "perfbench: %s set-up failed:\n%s\n", def->name.c_str(),
                   error.c_str());
      return false;
    }
    setup_spans.push_back({"setup", -1, start, NowNs()});
    load_s.push_back(out->load_s);
    expand_s.push_back(out->expand_s);
    setup_s.push_back(out->load_s + out->expand_s);
    return true;
  };
  auto set_up_again = [&] {
    for (int i = 0; i < kSetupRoundsPerPass; ++i) {
      SetUpResult discarded;
      if (!set_up(&discarded)) {
        return false;
      }
    }
    return true;
  };
  SetUpResult setup;
  if (!set_up(&setup)) {
    return 1;
  }

  const std::string golden_dir = GoldenDir(opt.root, workload_seed);
  std::string golden_text;
  std::vector<std::string> golden;
  if (ReadFile(nestsim::BaselinePath(golden_dir, def->golden), &golden_text)) {
    golden = DeterministicRecords(golden_text);
  }
  WorkloadBench bench(std::move(setup.run), opt.seed, std::move(golden), golden_dir);

  // One checked pass fills the caches and the allocator before the clock
  // starts. Then whole passes (with --trace 1, untraced + traced pairs) run
  // while the next one is expected to end no more than half a step past
  // --seconds, so runs measure about --seconds on any host.
  bench.RunPass(Pass::kWarmUp);
  const int64_t start = NowNs();
  auto elapsed = [start] { return Seconds(NowNs() - start); };
  double step_s = 0.0;
  while (bench.untraced_passes() == 0 || elapsed() + step_s / 2 < opt.seconds) {
    const double step_start = elapsed();
    bench.RunPass(Pass::kTimed);
    if (opt.trace) {
      bench.RunPass(Pass::kTraced);
    }
    if (!set_up_again()) {
      return 1;
    }
    step_s = elapsed() - step_start;
  }

  const bool correct = bench.failed() == 0 && bench.digests_agree();
  for (const std::string& p : bench.problems()) {
    std::fprintf(stderr, "perfbench: %s\n", p.c_str());
  }
  if (!bench.has_golden()) {
    std::fprintf(stderr,
                 "perfbench: no golden for %s seed %llu; checked pass-to-pass agreement only "
                 "(compare the digest)\n",
                 def->name.c_str(), static_cast<unsigned long long>(workload_seed));
  }

  const std::vector<Metric> end_to_end = EndToEndMetrics(bench, Quantile(setup_s, 0.5));
  std::printf("perfbench %s: workload seed %llu, %d untraced + %d traced passes after a "
              "warm-up pass, %zu timed jobs (%zu per pass), %zu set-up rounds, digest %s\n",
              def->name.c_str(), static_cast<unsigned long long>(workload_seed),
              bench.untraced_passes(), bench.traced_passes(), bench.job_samples(),
              bench.job_mean_ms().size(), setup_s.size(), bench.digest().c_str());
  PrintMetrics("end-to-end (untraced passes):", end_to_end);
  std::vector<Metric> per_layer;
  if (opt.trace) {
    per_layer = PerLayerMetrics(bench, load_s, expand_s);
    PrintMetrics("per-layer:", per_layer);
    if (!opt.spans.empty()) {
      std::vector<Span> spans = setup_spans;
      spans.insert(spans.end(), bench.spans().begin(), bench.spans().end());
      if (!WriteSpans(opt.spans, spans)) {
        std::fprintf(stderr, "perfbench: cannot write spans to %s\n", opt.spans.c_str());
      }
    }
  }
  std::printf("%s\n",
              ManifestJson(opt, *def, workload_seed, bench.has_golden(), bench.digest()).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n",
              correct ? "true" : "false", bench.attempted(), bench.failed(),
              MetricsJson(opt.trace ? per_layer : end_to_end).c_str());
  return 0;
}

// Writes every golden: one serial pass per golden stem at its recorded seed.
int Record(const Options& opt) {
  for (const WorkloadDef& def : Workloads()) {
    if (def.pdes_workers > 0) {
      continue;  // checked against the serial workload's goldens
    }
    SetUpResult setup;
    std::string error;
    if (!SetUp(def, opt.root, def.recorded_seed, &setup, &error)) {
      std::fprintf(stderr, "perfbench: %s set-up failed:\n%s\n", def.name.c_str(),
                   error.c_str());
      return 1;
    }
    nestsim::ExecuteScenario(&setup.run);
    for (const JobOutcome& o : setup.run.outcomes) {
      if (!o.ok()) {
        std::fprintf(stderr, "perfbench: %s: a job failed: %s\n", def.name.c_str(),
                     o.message.c_str());
        return 1;
      }
    }
    const std::string dir = GoldenDir(opt.root, def.recorded_seed);
    if (!nestsim::RecordBaseline(setup.run, dir, &error)) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      return 1;
    }
    std::printf("recorded %s (%zu jobs, digest %s)\n",
                nestsim::BaselinePath(dir, def.golden).c_str(), setup.run.jobs.size(),
                Hex64(CombinedDigest(DeterministicRecords(nestsim::BaselineJsonl(setup.run))))
                    .c_str());
  }
  return 0;
}

// Self-tests of the checks the timed numbers rely on. Exit 0 when all pass.
int SelfTest(const Options& opt) {
  int failures = 0;
  auto expect = [&failures](bool ok, const std::string& what) {
    std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what.c_str());
    failures += ok ? 0 : 1;
  };

  // 1. The golden check passes the recorded seed and rejects a perturbed one.
  {
    const WorkloadDef& def = *FindWorkload("rack");
    const uint64_t seed = def.recorded_seed;
    SetUpResult setup;
    std::string error;
    if (!SetUp(def, opt.root, seed, &setup, &error)) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      return 1;
    }
    const std::string dir = GoldenDir(opt.root, seed);
    ScenarioRun clean = setup.run;
    nestsim::ExecuteScenario(&clean);
    expect(nestsim::CheckBaseline(clean, dir).ok(), "rack seed " + std::to_string(seed) +
                                                        " matches its golden");

    // Same grid, same recorded seed field, but every run simulates seed + 1.
    ScenarioRun perturbed = setup.run;
    for (Job& job : perturbed.jobs) {
      auto inner = job.runner;
      job.runner = [inner](const ExperimentConfig& config, const nestsim::Workload& workload) {
        ExperimentConfig shifted = config;
        shifted.seed += 1;
        return inner ? inner(shifted, workload) : nestsim::RunExperiment(shifted, workload);
      };
    }
    nestsim::ExecuteScenario(&perturbed);
    const nestsim::BaselineCheck check = nestsim::CheckBaseline(perturbed, dir);
    bool names_outputs = false;
    for (const std::string& p : check.problems) {
      names_outputs = names_outputs || p.find("makespan_ns changed") != std::string::npos ||
                      p.find("counters changed") != std::string::npos;
    }
    expect(!check.ok() && names_outputs,
           "a perturbed seed fails CheckBaseline on its outputs (" +
               std::to_string(check.problems.size()) + " problems)");
  }

  // 2. Traced and untraced runs agree byte for byte on CFS and Nest jobs, and
  // the decorators saw the calls.
  for (const char* name : {"nas", "phoronix"}) {
    const WorkloadDef& def = *FindWorkload(name);
    const uint64_t seed = def.recorded_seed;
    SetUpResult setup;
    std::string error;
    if (!SetUp(def, opt.root, seed, &setup, &error)) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      return 1;
    }
    // The leading jobs: every variant of the first rows of the first machine.
    const size_t n = std::min<size_t>(setup.run.jobs.size(), 4 * setup.run.num_variants());
    setup.run.jobs.resize(n);
    ScenarioRun plain = setup.run;
    ScenarioRun traced = setup.run;
    std::vector<RunTrace> traces(n);
    for (size_t i = 0; i < n; ++i) {
      traced.jobs[i].runner = [trace = &traces[i]](const ExperimentConfig& config,
                                                    const nestsim::Workload& workload) {
        return perfbench::TracedRunExperiment(config, workload, trace);
      };
    }
    nestsim::ExecuteScenario(&plain);
    nestsim::ExecuteScenario(&traced);
    const auto plain_records = DeterministicRecords(nestsim::BaselineJsonl(plain));
    const auto traced_records = DeterministicRecords(nestsim::BaselineJsonl(traced));
    bool all_ok = true;
    for (const JobOutcome& o : traced.outcomes) {
      all_ok = all_ok && o.ok();
    }
    std::string golden_text;
    ReadFile(nestsim::BaselinePath(GoldenDir(opt.root, seed), def.golden), &golden_text);
    const auto golden = DeterministicRecords(golden_text);
    bool golden_ok = golden.size() > n;
    for (size_t i = 1; golden_ok && i <= n; ++i) {
      golden_ok = traced_records[i] == golden[i];
    }
    expect(all_ok && plain_records == traced_records,
           std::string(name) + ": " + std::to_string(n) +
               " CFS and Nest jobs have identical digests traced and untraced (" +
               Hex64(CombinedDigest(traced_records)) + ")");
    expect(golden_ok, std::string(name) + ": traced records match the golden");
    uint64_t cfs = 0;
    uint64_t nest = 0;
    uint64_t governor = 0;
    uint64_t observers = 0;
    for (const RunTrace& t : traces) {
      cfs += t.cfs_fork.calls + t.cfs_wake.calls;
      nest += t.nest_fork.calls + t.nest_wake.calls;
      governor += t.governor_requests.calls;
      observers += t.observer_callbacks.calls;
    }
    expect(cfs > 0 && nest > 0 && governor > 0 && observers > 0,
           std::string(name) + ": decorators counted cfs " + std::to_string(cfs) + ", nest " +
               std::to_string(nest) + ", governor " + std::to_string(governor) +
               ", observer " + std::to_string(observers) + " calls");
  }

  // 3. The documented held-out seeds really have no golden.
  for (const WorkloadDef& def : Workloads()) {
    std::string text;
    expect(!ReadFile(nestsim::BaselinePath(GoldenDir(opt.root, def.held_out_seed), def.golden),
                     &text),
           def.name + ": held-out seed " + std::to_string(def.held_out_seed) + " has no golden");
  }
  std::printf("%s\n", failures == 0 ? "self-test passed" : "self-test FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  PinEnvironment();
  Options opt;
  if (!ParseOptions(argc, argv, &opt)) {
    Usage();
    return 2;
  }
  if (opt.mode == "record") {
    return Record(opt);
  }
  if (opt.mode == "self-test") {
    return SelfTest(opt);
  }
  return RunWorkload(opt);
}
