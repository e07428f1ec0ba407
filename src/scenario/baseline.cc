#include "src/scenario/baseline.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/campaign/jsonl_sink.h"

namespace nestsim {

namespace {

// How a value reads in a problem: strings quoted, numbers in %.17g, anything
// else as JSON.
std::string Render(const JsonValue& v) {
  if (v.is_string()) {
    return "\"" + v.string + "\"";
  }
  return v.is_number() ? FormatDouble(v.number) : JsonSerialize(v);
}

std::string StringMember(const JsonValue& record, const char* key) {
  const JsonValue* v = record.Find(key);
  return v != nullptr && v->is_string() ? v->string : "?";
}

// The members that name a job. With its status they are all that compares
// when the job did not finish ok on both sides.
bool IdentityKey(const std::string& key) {
  return key == "machine" || key == "row" || key == "variant" || key == "status";
}

// Walks a golden record and a fresh one together. `where` locates a nested
// member in problem text (" (runs[1])").
struct RecordComparer {
  std::string id;  // "<machine> x <row> x <variant>" of the fresh record
  double wall_tolerance;
  bool identity_only;
  std::vector<std::string>* problems;

  void Problem(const std::string& what, const std::string& where) const {
    problems->push_back(id + ": " + what + where);
  }

  void Members(const JsonValue& golden, const JsonValue& fresh, const std::string& where) const {
    for (const auto& [key, value] : fresh.members) {
      if (identity_only && !IdentityKey(key)) {
        continue;
      }
      const JsonValue* golden_value = golden.Find(key);
      if (golden_value == nullptr) {
        Problem("golden record lacks \"" + key + "\"", where);
      } else {
        Value(key, *golden_value, value, where);
      }
    }
    for (const auto& [key, value] : golden.members) {
      if ((!identity_only || IdentityKey(key)) && fresh.Find(key) == nullptr) {
        Problem("fresh record lacks \"" + key + "\"", where);
      }
    }
  }

  void Value(const std::string& key, const JsonValue& golden, const JsonValue& fresh,
             const std::string& where) const {
    if (key == "wall_s") {
      // Host time, not simulation behaviour: it counts only inside a band.
      if (wall_tolerance > 0.0 && golden.is_number() && fresh.is_number()) {
        const double band = wall_tolerance * std::max(golden.number, 1e-3);
        if (std::fabs(fresh.number - golden.number) > band) {
          Problem("wall_s outside tolerance: golden " + Render(golden) + ", fresh " +
                      Render(fresh) + " (band ±" + FormatDouble(band) + ")",
                  where);
        }
      }
    } else if (golden.is_array() && fresh.is_array()) {
      if (golden.items.size() != fresh.items.size()) {
        Problem(key + " array shape changed", where);
        return;
      }
      for (size_t i = 0; i < fresh.items.size(); ++i) {
        Value(key, golden.items[i], fresh.items[i], " (" + key + "[" + std::to_string(i) + "])");
      }
    } else if (golden.is_object() && fresh.is_object()) {
      Members(golden, fresh, where);
    } else if (golden.type != fresh.type || Render(golden) != Render(fresh)) {
      Problem(key + " changed: golden " + Render(golden) + ", fresh " + Render(fresh), where);
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

std::string BaselineJobRecord(const Job& job, const JobOutcome& outcome) {
  std::string out = "{";
  AppendJsonField(out, "machine", job.config.machine);
  AppendJsonField(out, "row", job.workload);
  AppendJsonField(out, "variant", job.variant);
  AppendJsonField(out, "status", std::string(JobStatusName(outcome.status)));
  AppendJsonField(out, "wall_s", outcome.wall_seconds);
  if (outcome.status == JobStatus::kFailed) {
    AppendJsonField(out, "error", outcome.message);
  }
  if (outcome.ok()) {
    out += ",\"runs\":[";
    for (size_t i = 0; i < outcome.result.runs.size(); ++i) {
      const ExperimentResult& r = outcome.result.runs[i];
      if (i > 0) {
        out += ',';
      }
      out += '{';
      AppendJsonField(out, "seed", job.base_seed + i);
      AppendJsonField(out, "makespan_ns", static_cast<uint64_t>(r.makespan));
      AppendJsonField(out, "energy_j", r.energy_joules);
      AppendJsonField(out, "underload_per_s", r.underload_per_s);
      AppendJsonField(out, "context_switches", r.context_switches);
      AppendJsonField(out, "migrations", r.migrations);
      AppendJsonField(out, "tasks_created", static_cast<uint64_t>(r.tasks_created));
      AppendJsonField(out, "counters", SchedCountersDigest(r.counters));
      if (job.config.record_latency) {
        // Wakeup-latency tails are appended only when the scenario opted into
        // recording them, so pre-predict goldens stay byte-identical.
        AppendJsonField(out, "wakeup_p50_us", r.p50_wakeup_latency_us);
        AppendJsonField(out, "wakeup_p99_us", r.p99_wakeup_latency_us);
      }
      if (r.cluster.num_machines > 0) {
        // Cluster fields are appended only for cluster runs so single-machine
        // goldens stay byte-identical to pre-cluster recordings.
        AppendJsonField(out, "requests_offered", r.cluster.requests_offered);
        AppendJsonField(out, "requests_completed", r.cluster.requests_completed);
        AppendJsonField(out, "latency_p50_ms", r.cluster.p50_ms);
        AppendJsonField(out, "latency_p99_ms", r.cluster.p99_ms);
        AppendJsonField(out, "latency_p999_ms", r.cluster.p999_ms);
      }
      AppendResilienceFields(out, r.resilience);
      out += '}';
    }
    out += ']';
  }
  out += '}';
  return out;
}

void CompareJobRecords(const JsonValue& golden, const JsonValue& fresh, double wall_tolerance,
                       std::vector<std::string>* problems) {
  const bool both_ok =
      StringMember(golden, "status") == "ok" && StringMember(fresh, "status") == "ok";
  const RecordComparer cmp{StringMember(fresh, "machine") + " x " + StringMember(fresh, "row") +
                               " x " + StringMember(fresh, "variant"),
                           wall_tolerance, !both_ok, problems};
  cmp.Members(golden, fresh, "");
}

std::string BaselineJsonl(const ScenarioRun& run) {
  std::string out = "{";
  AppendJsonField(out, "baseline", run.scenario.name);
  AppendJsonField(out, "jobs", run.jobs.size());
  AppendJsonField(out, "repetitions", static_cast<uint64_t>(run.repetitions));
  AppendJsonField(out, "base_seed", run.base_seed);
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

  std::ifstream in(check.baseline_path, std::ios::binary);
  if (!in) {
    check.problems.push_back("no golden baseline at " + check.baseline_path +
                             " (run --record-baseline first)");
    return check;
  }
  // The same capped reader as every other input file (kMaxInputFileBytes).
  std::string text;
  ScenarioError read_error;
  if (!ReadInputFile(in, check.baseline_path, &text, &read_error)) {
    check.problems = read_error.errors;
    return check;
  }

  std::vector<JsonValue> records;
  std::istringstream lines(std::move(text));
  std::string line;
  size_t line_no = 0;
  while (std::getline(lines, line)) {
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
    ++check.compared;
    JsonValue fresh;
    std::string json_error;
    if (!JsonParse(BaselineJobRecord(job, run.outcomes[i]), &fresh, &json_error)) {
      check.problems.push_back(job.config.machine + " x " + job.workload + " x " + job.variant +
                               ": fresh record is not JSON: " + json_error);
      continue;
    }
    CompareJobRecords(records[i + 1], fresh, wall_tolerance, &check.problems);
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
    AppendJsonField(out, "scenario", c.scenario);
    AppendJsonField(out, "baseline", c.baseline_path);
    AppendJsonField(out, "jobs", static_cast<uint64_t>(c.jobs));
    AppendJsonField(out, "compared", static_cast<uint64_t>(c.compared));
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
