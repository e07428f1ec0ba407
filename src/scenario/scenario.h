// Declarative experiment scenarios (docs/SCENARIOS.md).
//
// A scenario file is one JSON object describing a whole experiment grid —
// machine presets, scheduler/governor variants, a workload family with preset
// or custom rows, repetitions/seed/timeout, config overrides, and optional
// sweep axes. ParseScenario validates it strictly (unknown keys, bad enums,
// and out-of-range values are all reported with their JSON path) and the
// runner (src/scenario/runner.h) expands it into campaign jobs.

#ifndef NESTSIM_SRC_SCENARIO_SCENARIO_H_
#define NESTSIM_SRC_SCENARIO_SCENARIO_H_

#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/obs/json_check.h"

namespace nestsim {

// Collects every validation problem instead of stopping at the first, so one
// run of nestsim_run reports all spec mistakes at once.
struct ScenarioError {
  std::vector<std::string> errors;

  void Add(const std::string& path, const std::string& message);
  bool ok() const { return errors.empty(); }
  // All messages, newline-separated.
  std::string Join() const;
};

// "a, b, c" — for "(known: ...)" error suffixes.
std::string JoinNames(const std::vector<std::string>& names);

// Strict reader over one JSON object: typed getters mark keys as consumed and
// Finish() reports any key nobody asked for. Shared by the scenario parser
// and the workload registries (src/scenario/registry.cc).
class SpecReader {
 public:
  // `obj` must outlive the reader. `path` prefixes every error ("fig5.json:
  // /workload"). Non-object values report one error and read as empty.
  SpecReader(const JsonValue& obj, std::string path, ScenarioError& err);

  // Marks `key` consumed; nullptr when absent.
  const JsonValue* Take(const std::string& key);

  // Typed getters: on absence leave *out untouched and return false; on type
  // or range errors report and return false. `required` additionally reports
  // absence.
  bool TakeString(const std::string& key, std::string* out, bool required = false);
  bool TakeInt(const std::string& key, int* out, int min_value, int max_value);
  bool TakeU64(const std::string& key, uint64_t* out);
  bool TakeDouble(const std::string& key, double* out, double min_value, double max_value);
  bool TakeBool(const std::string& key, bool* out);
  // String constrained to `allowed` (error lists the alternatives).
  bool TakeEnum(const std::string& key, std::string* out, const std::vector<std::string>& allowed,
                bool required = false);

  // Unknown-key check: every member not previously Taken is an error listing
  // the keys this reader knows about.
  void Finish();

  const std::string& path() const { return path_; }
  void AddError(const std::string& message) { err_.Add(path_, message); }
  ScenarioError& err() { return err_; }

 private:
  const JsonValue& obj_;
  std::string path_;
  ScenarioError& err_;
  std::vector<std::string> taken_;
};

// A scheduler/governor column of the grid. `column` is the table header
// (paper tables abbreviate, e.g. "Smove sch"), `band_label` the Table-4-style
// summary label; both default to `label`.
struct ScenarioVariant {
  std::string label;
  std::string column;
  std::string band_label;
  SchedulerKind scheduler = SchedulerKind::kCfs;
  std::string governor = "schedutil";
};

// One workload row: a preset name (no params) or a custom parameterisation.
struct ScenarioRow {
  std::string label;
  bool has_params = false;
  JsonValue params;  // object; valid when has_params
};

// One sweep axis: a config-override key swept over explicit values. Axes
// combine as a cross product, innermost last.
struct SweepAxis {
  std::string key;
  std::vector<JsonValue> values;
};

// How (and whether) the run prints paper-style tables.
struct TableSpec {
  enum class Style {
    kNone,       // no table (JSONL / baseline only)
    kSpeedup,    // Fig. 5/10/12 layout: baseline seconds + speedup columns
    kUnderload,  // Fig. 4 layout: underload/s per variant
    kBands,      // Table 4 layout: counts of rows per speedup band
    kLatency,    // cluster serving layout: p50/p99/p99.9 request latency
    kEnergy,     // energy-budget layout: joules, seconds, EDP per variant
    kWakeup,     // wakeup-latency layout: p50/p99 per variant (record_latency)
  };

  Style style = Style::kSpeedup;
  std::string row_header = "row";  // first column header
  int row_width = 14;              // first column width
  std::string row_suffix;          // appended to row labels when printing
  bool underload_column = false;   // speedup style: baseline u/s column (Fig. 10)
};

struct Scenario {
  std::string name;  // [a-z0-9_-]+; baseline filename and campaign name
  std::string title;
  std::string description;

  std::vector<std::string> machines;       // resolved preset names
  std::vector<ScenarioVariant> variants;   // index 0 is the speedup baseline
  std::string family;                      // workload family key
  std::vector<ScenarioRow> rows;

  int repetitions = 2;      // NESTSIM_REPS / --reps override at run time
  uint64_t base_seed = 1;
  double timeout_s = 0.0;   // per-job wall-clock budget; 0 = unlimited

  bool has_config = false;
  JsonValue config;  // object of config-override keys, applied to every job

  // Optional cluster block (src/cluster/): run every job as a fleet of
  // identical machines behind a request router. Requires family "requests".
  bool has_cluster = false;
  int cluster_machines = 2;
  std::string cluster_router = "round-robin";

  std::vector<SweepAxis> sweep;
  TableSpec table;
};

// The "standard" comparison set of the paper's tables (CFS/Nest under
// schedutil/performance) with their table headers; include_smove adds the
// Figure-5 Smove column.
std::vector<ScenarioVariant> StandardScenarioVariants(bool include_smove);

// The config every job of `variant` on `machine` starts from: its scheduler
// and governor, everything else at its default.
ExperimentConfig VariantConfig(const std::string& machine, const ScenarioVariant& variant);

// Applies one dotted override key ("nest.r_max", "time_limit_s", ...) to the
// config. Unknown keys, bad types, and out-of-range values are reported via
// `err` under `path`. Returns err.ok() for this application.
bool ApplyConfigOverride(ExperimentConfig* config, const std::string& key, const JsonValue& value,
                         const std::string& path, ScenarioError* err);

// Every override key ApplyConfigOverride accepts (for error messages, --list
// and docs/SCENARIOS.md).
std::vector<std::string> ConfigOverrideKeys();

// Parses one scenario object. `file_label` prefixes error paths. Returns
// false (with err populated) on any validation problem.
bool ParseScenario(const JsonValue& root, const std::string& file_label, Scenario* out,
                   ScenarioError* err);

// Reads `path`, JSON-parses it, and runs ParseScenario.
bool LoadScenario(const std::string& path, Scenario* out, ScenarioError* err);

}  // namespace nestsim

#endif  // NESTSIM_SRC_SCENARIO_SCENARIO_H_
