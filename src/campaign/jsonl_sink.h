// JSONL result sink: one JSON object per completed job.
//
// Benches emit these records next to their human-readable tables so sweeps
// can be post-processed (pandas, jq, gnuplot) without scraping stdout. The
// sink is enabled by pointing NESTSIM_JSONL at a file path; records are
// appended, one per line.

#ifndef NESTSIM_SRC_CAMPAIGN_JSONL_SINK_H_
#define NESTSIM_SRC_CAMPAIGN_JSONL_SINK_H_

#include <cstdio>
#include <mutex>
#include <string>

#include "src/campaign/job.h"

namespace nestsim {

// JSON string escaping per RFC 8259 (quotes, backslash, control chars).
std::string JsonEscape(const std::string& s);

// %.17g: enough digits that every double reads back to itself. Records write
// their numbers in this form and compare them by it.
std::string FormatDouble(double v);

// The member writers every JSONL record here is built from: each appends
// `"key":value` to an object under construction, after a comma unless the
// object is still empty. Strings are escaped, doubles use FormatDouble.
void AppendJsonField(std::string& out, const char* key, const std::string& value);
void AppendJsonField(std::string& out, const char* key, double value);
void AppendJsonField(std::string& out, const char* key, uint64_t value);

// A run's 8 resilience members (docs/FAULTS.md), tasks_killed through
// requests_degraded. Appends nothing unless r.any(), so records of runs where
// no fault or replica fired keep their pre-fault bytes.
void AppendResilienceFields(std::string& out, const ResilienceStats& r);

// The record the sink writes for one job, without the trailing newline.
// Fields: campaign, workload, variant, machine, scheduler, governor,
// base_seed, repetitions, status, wall_s; when the job succeeded also the
// aggregate means and a per-run array (seed, seconds, energy_j,
// underload_per_s, makespan_ns); when it failed, the error message.
std::string JobRecordJson(const std::string& campaign, const Job& job, const JobOutcome& outcome);

class JsonlSink {
 public:
  // Opens `path` for appending. An empty path disables the sink; a failed
  // open disables it too (with a warning on stderr).
  explicit JsonlSink(const std::string& path);
  ~JsonlSink();

  JsonlSink(const JsonlSink&) = delete;
  JsonlSink& operator=(const JsonlSink&) = delete;

  bool enabled() const { return file_ != nullptr; }

  // Appends one record. Thread-safe.
  void Write(const std::string& campaign, const Job& job, const JobOutcome& outcome);

  // $NESTSIM_JSONL, or "" when unset.
  static std::string PathFromEnv();

 private:
  std::mutex mu_;
  std::FILE* file_ = nullptr;
};

}  // namespace nestsim

#endif  // NESTSIM_SRC_CAMPAIGN_JSONL_SINK_H_
