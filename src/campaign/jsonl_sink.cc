#include "src/campaign/jsonl_sink.h"

#include <cstdlib>

#include "src/obs/sched_counters.h"

namespace nestsim {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

const char* JobStatusName(JobStatus status) {
  switch (status) {
    case JobStatus::kOk:
      return "ok";
    case JobStatus::kTimeout:
      return "timeout";
    case JobStatus::kFailed:
      return "failed";
  }
  return "?";
}

std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

namespace {

void AppendKey(std::string& out, const char* key) {
  if (!out.empty() && out.back() != '{') {
    out += ',';
  }
  out += '"';
  out += key;
  out += "\":";
}

}  // namespace

void AppendJsonField(std::string& out, const char* key, const std::string& value) {
  AppendKey(out, key);
  out += '"';
  out += JsonEscape(value);
  out += '"';
}

void AppendJsonField(std::string& out, const char* key, double value) {
  AppendKey(out, key);
  out += FormatDouble(value);
}

void AppendJsonField(std::string& out, const char* key, uint64_t value) {
  AppendKey(out, key);
  out += std::to_string(value);
}

void AppendResilienceFields(std::string& out, const ResilienceStats& r) {
  if (!r.any()) {
    return;
  }
  AppendJsonField(out, "tasks_killed", r.tasks_killed);
  AppendJsonField(out, "replicas_reaped", r.replicas_reaped);
  AppendJsonField(out, "evacuations", r.evacuations);
  AppendJsonField(out, "work_lost_ms", r.work_lost_ms);
  AppendJsonField(out, "wasted_replica_ms", r.wasted_replica_ms);
  AppendJsonField(out, "mean_evac_latency_us", r.mean_evac_latency_us);
  AppendJsonField(out, "requests_failed", r.requests_failed);
  AppendJsonField(out, "requests_degraded", r.requests_degraded);
}

std::string JobRecordJson(const std::string& campaign, const Job& job,
                          const JobOutcome& outcome) {
  std::string out = "{";
  AppendJsonField(out, "campaign", campaign);
  AppendJsonField(out, "workload", job.workload);
  AppendJsonField(out, "variant", job.variant);
  AppendJsonField(out, "machine", job.config.machine);
  AppendJsonField(out, "scheduler", std::string(SchedulerKindName(job.config.scheduler)));
  AppendJsonField(out, "governor", job.config.governor);
  AppendJsonField(out, "base_seed", job.base_seed);
  AppendJsonField(out, "repetitions", static_cast<uint64_t>(job.repetitions));
  AppendJsonField(out, "status", std::string(JobStatusName(outcome.status)));
  AppendJsonField(out, "wall_s", outcome.wall_seconds);
  if (outcome.status == JobStatus::kFailed) {
    AppendJsonField(out, "error", outcome.message);
  }
  if (outcome.status == JobStatus::kOk) {
    AppendJsonField(out, "mean_s", outcome.result.mean_seconds);
    AppendJsonField(out, "stddev_s", outcome.result.stddev_seconds);
    AppendJsonField(out, "mean_energy_j", outcome.result.mean_energy_j);
    AppendJsonField(out, "mean_underload_per_s", outcome.result.mean_underload_per_s);
    out += ",\"runs\":[";
    for (size_t i = 0; i < outcome.result.runs.size(); ++i) {
      const ExperimentResult& r = outcome.result.runs[i];
      if (i > 0) {
        out += ',';
      }
      out += '{';
      AppendJsonField(out, "seed", job.base_seed + i);
      AppendJsonField(out, "seconds", r.seconds());
      AppendJsonField(out, "energy_j", r.energy_joules);
      AppendJsonField(out, "underload_per_s", r.underload_per_s);
      AppendJsonField(out, "makespan_ns", static_cast<uint64_t>(r.makespan));
      AppendResilienceFields(out, r.resilience);
      out += '}';
    }
    out += ']';
    // Decision counters summed across the job's runs (docs/OBSERVABILITY.md).
    SchedCounters summed;
    for (const ExperimentResult& r : outcome.result.runs) {
      summed.Add(r.counters);
    }
    out += ",\"counters\":";
    out += SchedCountersJson(summed);
  }
  out += '}';
  return out;
}

JsonlSink::JsonlSink(const std::string& path) {
  if (path.empty()) {
    return;
  }
  file_ = std::fopen(path.c_str(), "a");
  if (file_ == nullptr) {
    std::fprintf(stderr, "[campaign] cannot open JSONL sink %s; disabling\n", path.c_str());
  }
}

JsonlSink::~JsonlSink() {
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

void JsonlSink::Write(const std::string& campaign, const Job& job, const JobOutcome& outcome) {
  if (file_ == nullptr) {
    return;
  }
  const std::string record = JobRecordJson(campaign, job, outcome);
  std::lock_guard<std::mutex> lock(mu_);
  std::fputs(record.c_str(), file_);
  std::fputc('\n', file_);
  std::fflush(file_);
}

std::string JsonlSink::PathFromEnv() {
  const char* env = std::getenv("NESTSIM_JSONL");
  return env != nullptr ? std::string(env) : std::string();
}

}  // namespace nestsim
