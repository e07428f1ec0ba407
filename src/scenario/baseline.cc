#include "src/scenario/baseline.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/campaign/jsonl_sink.h"

namespace nestsim {

namespace {

std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AppendString(std::string& out, const char* key, const std::string& value) {
  out += '"';
  out += key;
  out += "\":\"";
  out += JsonEscape(value);
  out += '"';
}

void AppendU64(std::string& out, const char* key, uint64_t value) {
  out += '"';
  out += key;
  out += "\":";
  out += std::to_string(value);
}

void AppendDouble(std::string& out, const char* key, double value) {
  out += '"';
  out += key;
  out += "\":";
  out += FormatDouble(value);
}

std::string BaselineJobRecord(const Job& job, const JobOutcome& outcome) {
  std::string out = "{";
  AppendString(out, "machine", job.config.machine);
  out += ',';
  AppendString(out, "row", job.workload);
  out += ',';
  AppendString(out, "variant", job.variant);
  out += ',';
  AppendString(out, "status", JobStatusName(outcome.status));
  out += ',';
  AppendDouble(out, "wall_s", outcome.wall_seconds);
  if (outcome.status == JobStatus::kFailed) {
    out += ',';
    AppendString(out, "error", outcome.message);
  }
  if (outcome.ok()) {
    out += ",\"runs\":[";
    for (size_t i = 0; i < outcome.result.runs.size(); ++i) {
      const ExperimentResult& r = outcome.result.runs[i];
      if (i > 0) {
        out += ',';
      }
      out += '{';
      AppendU64(out, "seed", job.base_seed + i);
      out += ',';
      AppendU64(out, "makespan_ns", static_cast<uint64_t>(r.makespan));
      out += ',';
      AppendDouble(out, "energy_j", r.energy_joules);
      out += ',';
      AppendDouble(out, "underload_per_s", r.underload_per_s);
      out += ',';
      AppendU64(out, "context_switches", r.context_switches);
      out += ',';
      AppendU64(out, "migrations", r.migrations);
      out += ',';
      AppendU64(out, "tasks_created", static_cast<uint64_t>(r.tasks_created));
      out += ',';
      AppendString(out, "counters", SchedCountersDigest(r.counters));
      if (job.config.record_latency) {
        // Wakeup-latency tails are appended only when the scenario opted into
        // recording them, so pre-predict goldens stay byte-identical.
        out += ',';
        AppendDouble(out, "wakeup_p50_us", r.p50_wakeup_latency_us);
        out += ',';
        AppendDouble(out, "wakeup_p99_us", r.p99_wakeup_latency_us);
      }
      if (r.cluster.num_machines > 0) {
        // Cluster fields are appended only for cluster runs so single-machine
        // goldens stay byte-identical to pre-cluster recordings.
        out += ',';
        AppendU64(out, "requests_offered", r.cluster.requests_offered);
        out += ',';
        AppendU64(out, "requests_completed", r.cluster.requests_completed);
        out += ',';
        AppendDouble(out, "latency_p50_ms", r.cluster.p50_ms);
        out += ',';
        AppendDouble(out, "latency_p99_ms", r.cluster.p99_ms);
        out += ',';
        AppendDouble(out, "latency_p999_ms", r.cluster.p999_ms);
      }
      if (r.resilience.any()) {
        // Resilience fields are appended only when a fault, replica, or
        // evacuation actually fired, so pre-fault goldens stay byte-identical.
        out += ',';
        AppendU64(out, "tasks_killed", r.resilience.tasks_killed);
        out += ',';
        AppendU64(out, "replicas_reaped", r.resilience.replicas_reaped);
        out += ',';
        AppendU64(out, "evacuations", r.resilience.evacuations);
        out += ',';
        AppendDouble(out, "work_lost_ms", r.resilience.work_lost_ms);
        out += ',';
        AppendDouble(out, "wasted_replica_ms", r.resilience.wasted_replica_ms);
        out += ',';
        AppendDouble(out, "mean_evac_latency_us", r.resilience.mean_evac_latency_us);
        out += ',';
        AppendU64(out, "requests_failed", r.resilience.requests_failed);
        out += ',';
        AppendU64(out, "requests_degraded", r.resilience.requests_degraded);
      }
      out += '}';
    }
    out += ']';
  }
  out += '}';
  return out;
}

// Compares one scalar field of the fresh job against the golden record;
// doubles compare as their %.17g renderings (exact round-trip).
struct JobComparer {
  const JsonValue& golden;
  const std::string id;  // "machine x row x variant"
  BaselineCheck& check;

  void Problem(const std::string& what) const { check.problems.push_back(id + ": " + what); }

  const JsonValue* Field(const JsonValue& obj, const char* key) const {
    const JsonValue* v = obj.Find(key);
    if (v == nullptr) {
      Problem(std::string("golden record lacks \"") + key + "\"");
    }
    return v;
  }

  void ExpectString(const JsonValue& obj, const char* key, const std::string& fresh) const {
    const JsonValue* v = Field(obj, key);
    if (v != nullptr && (!v->is_string() || v->string != fresh)) {
      Problem(std::string(key) + " changed: golden \"" + (v->is_string() ? v->string : "?") +
              "\", fresh \"" + fresh + "\"");
    }
  }

  void ExpectU64(const JsonValue& obj, const char* key, uint64_t fresh) const {
    const JsonValue* v = Field(obj, key);
    if (v != nullptr && (!v->is_number() || FormatDouble(v->number) !=
                                               FormatDouble(static_cast<double>(fresh)))) {
      Problem(std::string(key) + " changed: golden " +
              (v->is_number() ? FormatDouble(v->number) : "?") + ", fresh " +
              std::to_string(fresh));
    }
  }

  void ExpectDouble(const JsonValue& obj, const char* key, double fresh) const {
    const JsonValue* v = Field(obj, key);
    if (v != nullptr && (!v->is_number() || FormatDouble(v->number) != FormatDouble(fresh))) {
      Problem(std::string(key) + " changed: golden " +
              (v->is_number() ? FormatDouble(v->number) : "?") + ", fresh " + FormatDouble(fresh));
    }
  }
};

}  // namespace

uint64_t Fnv1a64(const std::string& text) {
  uint64_t hash = 14695981039346656037ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string SchedCountersDigest(const SchedCounters& counters) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(Fnv1a64(SchedCountersJson(counters))));
  return buf;
}

std::string BaselinePath(const std::string& dir, const std::string& scenario_name) {
  return dir + "/" + scenario_name + ".jsonl";
}

std::string BaselineJsonl(const ScenarioRun& run) {
  std::string out = "{";
  AppendString(out, "baseline", run.scenario.name);
  out += ',';
  AppendU64(out, "jobs", run.jobs.size());
  out += ',';
  AppendU64(out, "repetitions", static_cast<uint64_t>(run.repetitions));
  out += ',';
  AppendU64(out, "base_seed", run.base_seed);
  out += "}\n";
  for (size_t i = 0; i < run.jobs.size(); ++i) {
    out += BaselineJobRecord(run.jobs[i], run.outcomes[i]);
    out += '\n';
  }
  return out;
}

bool RecordBaseline(const ScenarioRun& run, const std::string& dir, std::string* error) {
  const std::string path = BaselinePath(dir, run.scenario.name);
  std::error_code ec;  // best effort; the open error below is authoritative
  std::filesystem::create_directories(dir, ec);
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    *error = "cannot write baseline " + path;
    return false;
  }
  out << BaselineJsonl(run);
  out.close();
  if (!out) {
    *error = "short write to baseline " + path;
    return false;
  }
  return true;
}

BaselineCheck CheckBaseline(const ScenarioRun& run, const std::string& dir,
                            double wall_tolerance) {
  BaselineCheck check;
  check.scenario = run.scenario.name;
  check.baseline_path = BaselinePath(dir, run.scenario.name);
  check.jobs = static_cast<int>(run.jobs.size());

  std::ifstream in(check.baseline_path);
  if (!in) {
    check.problems.push_back("no golden baseline at " + check.baseline_path +
                             " (run --record-baseline first)");
    return check;
  }

  std::vector<JsonValue> records;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    JsonValue record;
    std::string json_error;
    if (!JsonParse(line, &record, &json_error)) {
      check.problems.push_back(check.baseline_path + ":" + std::to_string(line_no) +
                               ": invalid JSON: " + json_error);
      return check;
    }
    records.push_back(std::move(record));
  }
  if (records.empty()) {
    check.problems.push_back(check.baseline_path + ": empty baseline file");
    return check;
  }

  const JsonValue& header = records.front();
  const JsonValue* golden_jobs = header.Find("jobs");
  if (golden_jobs == nullptr || !golden_jobs->is_number() ||
      static_cast<size_t>(golden_jobs->number) != run.jobs.size() ||
      records.size() - 1 != run.jobs.size()) {
    check.problems.push_back(
        "job-grid shape changed: golden has " +
        std::to_string(records.size() - 1) + " records (header says " +
        (golden_jobs != nullptr && golden_jobs->is_number()
             ? std::to_string(static_cast<long long>(golden_jobs->number))
             : "?") +
        "), fresh run has " + std::to_string(run.jobs.size()) + " jobs");
    return check;
  }
  const JsonValue* golden_seed = header.Find("base_seed");
  if (golden_seed == nullptr || !golden_seed->is_number() ||
      static_cast<uint64_t>(golden_seed->number) != run.base_seed) {
    check.problems.push_back("base_seed changed vs golden (golden " +
                             (golden_seed != nullptr && golden_seed->is_number()
                                  ? std::to_string(static_cast<long long>(golden_seed->number))
                                  : std::string("?")) +
                             ", fresh " + std::to_string(run.base_seed) + ")");
  }
  const JsonValue* golden_reps = header.Find("repetitions");
  if (golden_reps == nullptr || !golden_reps->is_number() ||
      static_cast<int>(golden_reps->number) != run.repetitions) {
    check.problems.push_back("repetitions changed vs golden (golden " +
                             (golden_reps != nullptr && golden_reps->is_number()
                                  ? std::to_string(static_cast<long long>(golden_reps->number))
                                  : std::string("?")) +
                             ", fresh " + std::to_string(run.repetitions) + ")");
  }

  // A base_seed or repetitions change is recorded above and the jobs are
  // still compared, so a perturbed-seed check also reports each job's
  // fields and status.
  for (size_t i = 0; i < run.jobs.size(); ++i) {
    const Job& job = run.jobs[i];
    const JobOutcome& outcome = run.outcomes[i];
    const JsonValue& golden = records[i + 1];
    JobComparer cmp{golden,
                    job.config.machine + " x " + job.workload + " x " + job.variant, check};
    ++check.compared;

    cmp.ExpectString(golden, "machine", job.config.machine);
    cmp.ExpectString(golden, "row", job.workload);
    cmp.ExpectString(golden, "variant", job.variant);
    cmp.ExpectString(golden, "status", JobStatusName(outcome.status));

    if (wall_tolerance > 0.0) {
      const JsonValue* wall = golden.Find("wall_s");
      if (wall != nullptr && wall->is_number()) {
        const double band = wall_tolerance * std::max(wall->number, 1e-3);
        if (std::fabs(outcome.wall_seconds - wall->number) > band) {
          cmp.Problem("wall_s outside tolerance: golden " + FormatDouble(wall->number) +
                      ", fresh " + FormatDouble(outcome.wall_seconds) + " (band ±" +
                      FormatDouble(band) + ")");
        }
      }
    }

    if (!outcome.ok()) {
      continue;
    }
    const JsonValue* runs = golden.Find("runs");
    if (runs == nullptr || !runs->is_array() ||
        runs->items.size() != outcome.result.runs.size()) {
      cmp.Problem("runs array shape changed");
      continue;
    }
    for (size_t r = 0; r < outcome.result.runs.size(); ++r) {
      const ExperimentResult& fresh = outcome.result.runs[r];
      const JsonValue& grun = runs->items[r];
      cmp.ExpectU64(grun, "seed", job.base_seed + r);
      cmp.ExpectU64(grun, "makespan_ns", static_cast<uint64_t>(fresh.makespan));
      cmp.ExpectDouble(grun, "energy_j", fresh.energy_joules);
      cmp.ExpectDouble(grun, "underload_per_s", fresh.underload_per_s);
      cmp.ExpectU64(grun, "context_switches", fresh.context_switches);
      cmp.ExpectU64(grun, "migrations", fresh.migrations);
      cmp.ExpectU64(grun, "tasks_created", static_cast<uint64_t>(fresh.tasks_created));
      cmp.ExpectString(grun, "counters", SchedCountersDigest(fresh.counters));
      if (job.config.record_latency) {
        cmp.ExpectDouble(grun, "wakeup_p50_us", fresh.p50_wakeup_latency_us);
        cmp.ExpectDouble(grun, "wakeup_p99_us", fresh.p99_wakeup_latency_us);
      }
      if (fresh.cluster.num_machines > 0) {
        cmp.ExpectU64(grun, "requests_offered", fresh.cluster.requests_offered);
        cmp.ExpectU64(grun, "requests_completed", fresh.cluster.requests_completed);
        cmp.ExpectDouble(grun, "latency_p50_ms", fresh.cluster.p50_ms);
        cmp.ExpectDouble(grun, "latency_p99_ms", fresh.cluster.p99_ms);
        cmp.ExpectDouble(grun, "latency_p999_ms", fresh.cluster.p999_ms);
      }
      if (fresh.resilience.any()) {
        cmp.ExpectU64(grun, "tasks_killed", fresh.resilience.tasks_killed);
        cmp.ExpectU64(grun, "replicas_reaped", fresh.resilience.replicas_reaped);
        cmp.ExpectU64(grun, "evacuations", fresh.resilience.evacuations);
        cmp.ExpectDouble(grun, "work_lost_ms", fresh.resilience.work_lost_ms);
        cmp.ExpectDouble(grun, "wasted_replica_ms", fresh.resilience.wasted_replica_ms);
        cmp.ExpectDouble(grun, "mean_evac_latency_us", fresh.resilience.mean_evac_latency_us);
        cmp.ExpectU64(grun, "requests_failed", fresh.resilience.requests_failed);
        cmp.ExpectU64(grun, "requests_degraded", fresh.resilience.requests_degraded);
      }
    }
  }
  return check;
}

std::string BaselineVerdictJson(const std::vector<BaselineCheck>& checks) {
  bool all_ok = true;
  for (const BaselineCheck& c : checks) {
    all_ok = all_ok && c.ok();
  }
  std::string out = "{\"ok\":";
  out += all_ok ? "true" : "false";
  out += ",\"scenarios\":[";
  for (size_t i = 0; i < checks.size(); ++i) {
    const BaselineCheck& c = checks[i];
    if (i > 0) {
      out += ',';
    }
    out += '{';
    AppendString(out, "scenario", c.scenario);
    out += ',';
    AppendString(out, "baseline", c.baseline_path);
    out += ',';
    AppendU64(out, "jobs", static_cast<uint64_t>(c.jobs));
    out += ',';
    AppendU64(out, "compared", static_cast<uint64_t>(c.compared));
    out += ",\"ok\":";
    out += c.ok() ? "true" : "false";
    out += ",\"problems\":[";
    for (size_t p = 0; p < c.problems.size(); ++p) {
      if (p > 0) {
        out += ',';
      }
      out += '"';
      out += JsonEscape(c.problems[p]);
      out += '"';
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace nestsim
