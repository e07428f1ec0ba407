#include "src/scenario/scenario.h"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "src/cluster/router.h"
#include "src/governors/governors.h"
#include "src/hw/machine_spec.h"
#include "src/scenario/predict_io.h"
#include "src/scenario/registry.h"
#include "src/scenario/runner.h"
#include "src/sim/time.h"

namespace nestsim {

void ScenarioError::Add(const std::string& path, const std::string& message) {
  errors.push_back(path.empty() ? message : path + ": " + message);
}

std::string ScenarioError::Join() const {
  std::string out;
  for (const std::string& e : errors) {
    if (!out.empty()) {
      out += '\n';
    }
    out += e;
  }
  return out;
}

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) {
      out += ", ";
    }
    out += n;
  }
  return out;
}

// SpecReader --------------------------------------------------------------

SpecReader::SpecReader(const JsonValue& obj, std::string path, ScenarioError& err)
    : obj_(obj), path_(std::move(path)), err_(err) {
  if (!obj_.is_object()) {
    err_.Add(path_, std::string("expected an object, got ") + JsonTypeName(obj_.type));
  }
}

const JsonValue* SpecReader::Take(const std::string& key) {
  taken_.push_back(key);
  return obj_.is_object() ? obj_.Find(key) : nullptr;
}

bool SpecReader::TakeString(const std::string& key, std::string* out, bool required) {
  const JsonValue* v = Take(key);
  if (v == nullptr) {
    if (required) {
      err_.Add(path_, "missing required key \"" + key + "\" (string)");
    }
    return false;
  }
  if (!v->is_string()) {
    err_.Add(path_, "\"" + key + "\" must be a string, got " + JsonTypeName(v->type));
    return false;
  }
  *out = v->string;
  return true;
}

bool SpecReader::TakeInt(const std::string& key, int* out, int min_value, int max_value) {
  const JsonValue* v = Take(key);
  if (v == nullptr) {
    return false;
  }
  if (!v->is_number() || std::floor(v->number) != v->number) {
    err_.Add(path_, "\"" + key + "\" must be an integer, got " +
                        (v->is_number() ? "a fractional number" : JsonTypeName(v->type)));
    return false;
  }
  if (v->number < min_value || v->number > max_value) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "\"%s\" out of range: %.17g not in [%d, %d]", key.c_str(),
                  v->number, min_value, max_value);
    err_.Add(path_, buf);
    return false;
  }
  *out = static_cast<int>(v->number);
  return true;
}

bool SpecReader::TakeU64(const std::string& key, uint64_t* out) {
  const JsonValue* v = Take(key);
  if (v == nullptr) {
    return false;
  }
  if (!v->is_number() || std::floor(v->number) != v->number || v->number < 0 ||
      v->number > 9.007199254740992e15) {  // 2^53: exactly representable
    err_.Add(path_, "\"" + key + "\" must be a non-negative integer (< 2^53)");
    return false;
  }
  *out = static_cast<uint64_t>(v->number);
  return true;
}

bool SpecReader::TakeDouble(const std::string& key, double* out, double min_value,
                            double max_value) {
  const JsonValue* v = Take(key);
  if (v == nullptr) {
    return false;
  }
  if (!v->is_number()) {
    err_.Add(path_, "\"" + key + "\" must be a number, got " + JsonTypeName(v->type));
    return false;
  }
  if (v->number < min_value || v->number > max_value) {
    char buf[112];
    std::snprintf(buf, sizeof(buf), "\"%s\" out of range: %.17g not in [%g, %g]", key.c_str(),
                  v->number, min_value, max_value);
    err_.Add(path_, buf);
    return false;
  }
  *out = v->number;
  return true;
}

bool SpecReader::TakeBool(const std::string& key, bool* out) {
  const JsonValue* v = Take(key);
  if (v == nullptr) {
    return false;
  }
  if (!v->is_bool()) {
    err_.Add(path_, "\"" + key + "\" must be true or false, got " + JsonTypeName(v->type));
    return false;
  }
  *out = v->boolean;
  return true;
}

bool SpecReader::TakeEnum(const std::string& key, std::string* out,
                          const std::vector<std::string>& allowed, bool required) {
  std::string value;
  if (!TakeString(key, &value, required)) {
    return false;
  }
  for (const std::string& a : allowed) {
    if (a == value) {
      *out = value;
      return true;
    }
  }
  err_.Add(path_,
           "\"" + key + "\": unknown value \"" + value + "\" (allowed: " + JoinNames(allowed) + ")");
  return false;
}

void SpecReader::Finish() {
  if (!obj_.is_object()) {
    return;
  }
  for (const auto& [key, value] : obj_.members) {
    (void)value;
    bool known = false;
    for (const std::string& t : taken_) {
      if (t == key) {
        known = true;
        break;
      }
    }
    if (!known) {
      err_.Add(path_, "unknown key \"" + key + "\" (known keys: " + JoinNames(taken_) + ")");
    }
  }
}

// Variants ----------------------------------------------------------------

std::vector<ScenarioVariant> StandardScenarioVariants(bool include_smove) {
  std::vector<ScenarioVariant> variants = {
      {"CFS sched", "CFS sched (s)", "CFS-sched.", SchedulerKind::kCfs, "schedutil"},
      {"CFS perf", "CFS perf", "CFS-perf.", SchedulerKind::kCfs, "performance"},
      {"Nest sched", "Nest sched", "Nest-sched.", SchedulerKind::kNest, "schedutil"},
      {"Nest perf", "Nest perf", "Nest-perf.", SchedulerKind::kNest, "performance"},
  };
  if (include_smove) {
    variants.push_back(
        {"Smove sched", "Smove sch", "Smove-sched.", SchedulerKind::kSmove, "schedutil"});
  }
  return variants;
}

ExperimentConfig VariantConfig(const std::string& machine, const ScenarioVariant& variant) {
  ExperimentConfig config;
  config.machine = machine;
  config.scheduler = variant.scheduler;
  config.governor = variant.governor;
  return config;
}

// Config overrides --------------------------------------------------------

namespace {

bool OverrideInt(const JsonValue& value, int min_value, int max_value, int* out) {
  if (!value.is_number() || std::floor(value.number) != value.number ||
      value.number < min_value || value.number > max_value) {
    return false;
  }
  *out = static_cast<int>(value.number);
  return true;
}

bool OverrideDouble(const JsonValue& value, double min_value, double max_value, double* out) {
  if (!value.is_number() || value.number < min_value || value.number > max_value) {
    return false;
  }
  *out = value.number;
  return true;
}

bool OverrideBool(const JsonValue& value, bool* out) {
  if (!value.is_bool()) {
    return false;
  }
  *out = value.boolean;
  return true;
}

bool OverrideString(const JsonValue& value, std::string* out) {
  if (!value.is_string()) {
    return false;
  }
  *out = value.string;
  return true;
}

// `apply` returns false on a value it rejects; the diagnostic then reads
// "<key> expects <expects>" unless `apply` explained itself in `*why`.
struct OverrideSpec {
  const char* key;
  const char* expects;
  std::function<bool(ExperimentConfig*, const JsonValue&, std::string* why)> apply;
};

const std::vector<OverrideSpec>& Overrides() {
  static const std::vector<OverrideSpec>* specs = new std::vector<OverrideSpec>{
      {"time_limit_s", "number in (0, 1e6]",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         double s = 0;
         if (!OverrideDouble(v, 1e-9, 1e6, &s)) {
           return false;
         }
         c->time_limit = static_cast<SimDuration>(s * static_cast<double>(kSecond));
         return true;
       }},
      {"record_trace", "bool",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         return OverrideBool(v, &c->record_trace);
       }},
      {"record_underload_series", "bool",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         return OverrideBool(v, &c->record_underload_series);
       }},
      {"record_latency", "bool",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         return OverrideBool(v, &c->record_latency);
       }},
      {"trace_dir", "string",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         return OverrideString(v, &c->trace_dir);
       }},
      {"trace_label", "string",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         return OverrideString(v, &c->trace_label);
       }},
      {"nest.p_remove_ticks", "integer in [0, 1000]",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         return OverrideInt(v, 0, 1000, &c->nest.p_remove_ticks);
       }},
      {"nest.r_max", "integer in [0, 4096]",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         return OverrideInt(v, 0, 4096, &c->nest.r_max);
       }},
      {"nest.r_impatient", "integer in [0, 1000]",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         return OverrideInt(v, 0, 1000, &c->nest.r_impatient);
       }},
      {"nest.s_max_ticks", "integer in [0, 1000]",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         return OverrideInt(v, 0, 1000, &c->nest.s_max_ticks);
       }},
      {"nest.enable_reserve", "bool",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         return OverrideBool(v, &c->nest.enable_reserve);
       }},
      {"nest.enable_compaction", "bool",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         return OverrideBool(v, &c->nest.enable_compaction);
       }},
      {"nest.enable_spin", "bool",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         return OverrideBool(v, &c->nest.enable_spin);
       }},
      {"nest.enable_attach", "bool",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         return OverrideBool(v, &c->nest.enable_attach);
       }},
      {"nest.enable_impatience", "bool",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         return OverrideBool(v, &c->nest.enable_impatience);
       }},
      {"nest.enable_wake_work_conservation", "bool",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         return OverrideBool(v, &c->nest.enable_wake_work_conservation);
       }},
      {"nest.enable_placement_reservation", "bool",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         return OverrideBool(v, &c->nest.enable_placement_reservation);
       }},
      {"governor", "string (a known governor name)",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         std::string name;
         if (!OverrideString(v, &name) || !IsKnownGovernor(name)) {
           return false;
         }
         c->governor = name;
         return true;
       }},
      {"smove.low_freq_fraction", "number in (0, 1]",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         return OverrideDouble(v, 1e-9, 1.0, &c->smove.low_freq_fraction);
       }},
      {"smove.move_delay_us", "number in [0, 1e6]",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         double us = 0;
         if (!OverrideDouble(v, 0.0, 1e6, &us)) {
           return false;
         }
         c->smove.move_delay = static_cast<SimDuration>(us * static_cast<double>(kMicrosecond));
         return true;
       }},
      // Cache-warmth model (src/hw/cache_model.h, docs/MODEL.md §5). Applies
      // to every scheduler; at the defaults (speedup 1, cost 0) the model is
      // off and behaviour is byte-identical to a build without it.
      {"cache.warm_speedup", "number in [1, 10]",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         return OverrideDouble(v, 1.0, 10.0, &c->kernel.cache.warm_speedup);
       }},
      {"cache.migration_cost_work", "number in [0, 1e9]",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         return OverrideDouble(v, 0.0, 1e9, &c->kernel.cache.migration_cost_work);
       }},
      {"cache.warm_threshold", "number in [0, 1]",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         return OverrideDouble(v, 0.0, 1.0, &c->kernel.cache.warm_threshold);
       }},
      // NestCachePolicy extras (src/nest/nest_cache_policy.h); only the
      // nest_cache variant reads them.
      {"nest_cache.warm_bias_threshold", "number in [0, 1]",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         return OverrideDouble(v, 0.0, 1.0, &c->nest_cache.warm_bias_threshold);
       }},
      {"nest_cache.compaction_grace_ticks", "integer in [0, 1000]",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         return OverrideInt(v, 0, 1000, &c->nest_cache.compaction_grace_ticks);
       }},
      {"nest_cache.enable_warm_anchor", "bool",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         return OverrideBool(v, &c->nest_cache.enable_warm_anchor);
       }},
      {"nest_cache.enable_cost_aware_expansion", "bool",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         return OverrideBool(v, &c->nest_cache.enable_cost_aware_expansion);
       }},
      {"nest_cache.enable_compaction_grace", "bool",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         return OverrideBool(v, &c->nest_cache.enable_compaction_grace);
       }},
      // Fault-injection plan (src/fault/, docs/FAULTS.md). All rates default
      // to 0 (no plan drawn, goldens byte-identical); rates are expected
      // events per simulated second per machine.
      {"fault.core_fail_rate_per_s", "number in [0, 1000]",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         return OverrideDouble(v, 0.0, 1000.0, &c->fault.core_fail_rate_per_s);
       }},
      {"fault.core_downtime_ms", "number in [0, 1e6]",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         return OverrideDouble(v, 0.0, 1e6, &c->fault.core_downtime_ms);
       }},
      {"fault.machine_fail_rate_per_s", "number in [0, 1000]",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         return OverrideDouble(v, 0.0, 1000.0, &c->fault.machine_fail_rate_per_s);
       }},
      {"fault.machine_downtime_ms", "number in [0, 1e6]",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         return OverrideDouble(v, 0.0, 1e6, &c->fault.machine_downtime_ms);
       }},
      {"fault.horizon_s", "number in [0, 1e6]",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         return OverrideDouble(v, 0.0, 1e6, &c->fault.horizon_s);
       }},
      // Task replication: N copies per injected task (cluster: per request
      // part), JOIN on the first `quorum` completions; losers are reaped.
      {"replicas", "integer in [1, 16]",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         return OverrideInt(v, 1, 16, &c->fault.replicas);
       }},
      {"fault.quorum", "integer in [0, 16] (0 = all replicas)",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         return OverrideInt(v, 0, 16, &c->fault.quorum);
       }},
      // Energy budget (src/governors/, docs/FAULTS.md). budget_w 0 disables;
      // only the "budget" governor acts on it.
      {"power.budget_w", "number in [0, 1e6]",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         return OverrideDouble(v, 0.0, 1e6, &c->power.budget_w);
       }},
      {"power.headroom_fraction", "number in (0, 1]",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         return OverrideDouble(v, 1e-9, 1.0, &c->power.headroom_fraction);
       }},
      // NestBudgetPolicy extras (src/nest/nest_budget_policy.h); only the
      // nest_budget variant reads them.
      {"nest_budget.min_primary", "integer in [1, 4096]",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         return OverrideInt(v, 1, 4096, &c->nest_budget.min_primary);
       }},
      // Prediction subsystem (src/predict/, docs/PREDICTION.md). model_file
      // loads eagerly so a missing or malformed model is a parse error, not a
      // mid-campaign failure; the path resolves like scenario files do.
      {"predict.model_file",
       "string (path to a valid nest-predict-table model JSON; see docs/PREDICTION.md)",
       [](ExperimentConfig* c, const JsonValue& v, std::string* why) {
         std::string path;
         if (!OverrideString(v, &path)) {
           return false;
         }
         ScenarioError load_err;
         auto model = std::make_shared<TableModel>();
         if (!LoadTableModelFile(ResolveScenarioPath(path), model.get(), &load_err)) {
           *why = "does not load: " + load_err.Join();
           return false;
         }
         c->predict.model = std::move(model);
         return true;
       }},
      {"predict.oracle_window_ms", "number in (0, 1e6]",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         return OverrideDouble(v, 1e-9, 1e6, &c->predict.oracle_window_ms);
       }},
      {"predict.oracle_margin", "integer in [0, 4096]",
       [](ExperimentConfig* c, const JsonValue& v, std::string*) {
         return OverrideInt(v, 0, 4096, &c->predict.oracle_margin);
       }},
  };
  return *specs;
}

}  // namespace

std::vector<std::string> ConfigOverrideKeys() {
  std::vector<std::string> keys;
  keys.reserve(Overrides().size());
  for (const OverrideSpec& o : Overrides()) {
    keys.push_back(o.key);
  }
  return keys;
}

bool ApplyConfigOverride(ExperimentConfig* config, const std::string& key, const JsonValue& value,
                         const std::string& path, ScenarioError* err) {
  for (const OverrideSpec& o : Overrides()) {
    if (key == o.key) {
      std::string why;
      if (!o.apply(config, value, &why)) {
        err->Add(path,
                 "\"" + key + "\" " + (why.empty() ? "expects " + std::string(o.expects) : why));
        return false;
      }
      return true;
    }
  }
  err->Add(path,
           "unknown config key \"" + key + "\" (known: " + JoinNames(ConfigOverrideKeys()) + ")");
  return false;
}

// ParseScenario -----------------------------------------------------------

namespace {

bool ValidName(const std::string& name) {
  if (name.empty()) {
    return false;
  }
  for (const char c : name) {
    if (!(std::islower(static_cast<unsigned char>(c)) ||
          std::isdigit(static_cast<unsigned char>(c)) || c == '_' || c == '-')) {
      return false;
    }
  }
  return true;
}

void ParseMachines(const JsonValue* v, const std::string& path, Scenario* out,
                   ScenarioError* err) {
  if (v == nullptr) {
    out->machines = PaperMachineNames();
    return;
  }
  if (v->is_string()) {
    if (v->string == "paper") {
      out->machines = PaperMachineNames();
    } else if (v->string == "all") {
      out->machines = MachineNames();
    } else {
      err->Add(path, "\"machines\": unknown group \"" + v->string +
                         "\" (allowed: paper, all, or an array of machine names)");
    }
    return;
  }
  if (!v->is_array() || v->items.empty()) {
    err->Add(path, "\"machines\" must be \"paper\", \"all\", or a non-empty array of names");
    return;
  }
  for (const JsonValue& item : v->items) {
    if (!item.is_string() || FindMachine(item.string) == nullptr) {
      err->Add(path, "\"machines\": unknown machine " +
                         (item.is_string() ? "\"" + item.string + "\"" : JsonTypeName(item.type)) +
                         std::string(" (known: ") + JoinNames(MachineNames()) + ")");
      continue;
    }
    out->machines.push_back(item.string);
  }
}

void ParseVariants(const JsonValue* v, const std::string& path, Scenario* out,
                   ScenarioError* err) {
  if (v == nullptr) {
    out->variants = StandardScenarioVariants(false);
    return;
  }
  if (v->is_string()) {
    if (v->string == "standard") {
      out->variants = StandardScenarioVariants(false);
    } else if (v->string == "standard+smove") {
      out->variants = StandardScenarioVariants(true);
    } else {
      err->Add(path, "\"variants\": unknown group \"" + v->string +
                         "\" (allowed: standard, standard+smove, or an array of variant objects)");
    }
    return;
  }
  if (!v->is_array() || v->items.empty()) {
    err->Add(path,
             "\"variants\" must be \"standard\", \"standard+smove\", or a non-empty array of "
             "variant objects");
    return;
  }
  for (size_t i = 0; i < v->items.size(); ++i) {
    const std::string vpath = path + "/variants[" + std::to_string(i) + "]";
    SpecReader reader(v->items[i], vpath, *err);
    ScenarioVariant variant;
    reader.TakeString("label", &variant.label, /*required=*/true);
    std::string scheduler;
    if (reader.TakeEnum("scheduler", &scheduler, SchedulerKindKeys(), /*required=*/true)) {
      SchedulerKindFromKey(scheduler, &variant.scheduler);
    }
    if (!reader.TakeEnum("governor", &variant.governor, GovernorNames(), /*required=*/true)) {
      variant.governor = "schedutil";
    }
    variant.column = variant.label;
    variant.band_label = variant.label;
    reader.TakeString("column", &variant.column);
    reader.TakeString("band_label", &variant.band_label);
    reader.Finish();
    out->variants.push_back(std::move(variant));
  }
  // Duplicate labels would collide in baselines and JSONL post-processing.
  for (size_t i = 0; i < out->variants.size(); ++i) {
    for (size_t j = i + 1; j < out->variants.size(); ++j) {
      if (out->variants[i].label == out->variants[j].label) {
        err->Add(path, "\"variants\": duplicate label \"" + out->variants[i].label + "\"");
      }
    }
  }
}

void ParseWorkload(const JsonValue* v, const std::string& path, Scenario* out,
                   ScenarioError* err) {
  if (v == nullptr) {
    err->Add(path, "missing required key \"workload\" (object)");
    return;
  }
  SpecReader reader(*v, path + "/workload", *err);
  if (!reader.TakeString("family", &out->family, /*required=*/true)) {
    reader.Finish();
    return;
  }
  const WorkloadFamily* family = FindWorkloadFamily(out->family);
  if (family == nullptr) {
    reader.AddError("unknown workload family \"" + out->family +
                    "\" (known: " + JoinNames(WorkloadFamilyNames()) + ")");
    reader.Finish();
    return;
  }

  const JsonValue* presets = reader.Take("presets");
  const JsonValue* rows = reader.Take("rows");
  const JsonValue* params = reader.Take("params");
  const int sources = (presets != nullptr) + (rows != nullptr) + (params != nullptr);
  if (sources > 1) {
    reader.AddError("give at most one of \"presets\", \"rows\", \"params\"");
    reader.Finish();
    return;
  }

  if (presets != nullptr) {
    std::vector<std::string> names;
    if (presets->is_string()) {
      const std::vector<std::string>* group = family->FindGroup(presets->string);
      if (group == nullptr) {
        std::vector<std::string> group_names;
        for (const auto& [g, members] : family->groups) {
          (void)members;
          group_names.push_back(g);
        }
        reader.AddError("\"presets\": family \"" + out->family + "\" has no preset group \"" +
                        presets->string + "\" (known groups: " + JoinNames(group_names) + ")");
      } else {
        names = *group;
      }
    } else if (presets->is_array() && !presets->items.empty()) {
      for (const JsonValue& item : presets->items) {
        if (!item.is_string()) {
          reader.AddError(std::string("\"presets\": entries must be strings, got ") +
                          JsonTypeName(item.type));
          continue;
        }
        names.push_back(item.string);
      }
    } else {
      reader.AddError("\"presets\" must be a group name or a non-empty array of preset names");
    }
    for (const std::string& name : names) {
      if (!family->is_preset(name)) {
        reader.AddError("\"presets\": family \"" + out->family + "\" has no preset \"" + name +
                        "\" (known: " + JoinNames(family->presets) + ")");
        continue;
      }
      out->rows.push_back(ScenarioRow{name, false, {}});
    }
  } else if (rows != nullptr) {
    if (!rows->is_array() || rows->items.empty()) {
      reader.AddError("\"rows\" must be a non-empty array of row objects");
    } else {
      for (size_t i = 0; i < rows->items.size(); ++i) {
        const std::string rpath = reader.path() + "/rows[" + std::to_string(i) + "]";
        SpecReader row_reader(rows->items[i], rpath, *err);
        ScenarioRow row;
        row_reader.TakeString("label", &row.label, /*required=*/true);
        if (const JsonValue* p = row_reader.Take("params")) {
          if (!p->is_object()) {
            row_reader.AddError(std::string("\"params\" must be an object, got ") +
                                JsonTypeName(p->type));
          } else {
            row.has_params = true;
            row.params = *p;
          }
        }
        row_reader.Finish();
        if (!row.has_params && !row.label.empty() && !family->is_preset(row.label)) {
          row_reader.AddError("row \"" + row.label + "\" has no params and is not a \"" +
                              out->family + "\" preset (known presets: " +
                              JoinNames(family->presets) + ")");
        }
        out->rows.push_back(std::move(row));
      }
    }
  } else if (params != nullptr) {
    if (!params->is_object()) {
      reader.AddError(std::string("\"params\" must be an object, got ") +
                      JsonTypeName(params->type));
    } else {
      out->rows.push_back(ScenarioRow{out->family, true, *params});
    }
  } else {
    const std::vector<std::string>* all = family->FindGroup("all");
    if (all != nullptr && !all->empty()) {
      for (const std::string& name : *all) {
        out->rows.push_back(ScenarioRow{name, false, {}});
      }
    } else if (family->is_preset(out->family)) {
      // Families without presets (hackbench, schbench) run their defaults.
      out->rows.push_back(ScenarioRow{out->family, false, {}});
    } else {
      reader.AddError("family \"" + out->family + "\" needs \"params\" or \"rows\"");
    }
  }
  reader.Finish();

  // Test-build every parameterised row now so bad params (unknown keys, bad
  // types, out-of-range values) are parse errors, not mid-campaign failures.
  for (size_t i = 0; i < out->rows.size(); ++i) {
    const ScenarioRow& row = out->rows[i];
    if (row.has_params) {
      family->build(row.label, &row.params,
                    path + "/workload/rows[" + std::to_string(i) + "]/params", *err);
    }
  }

  for (size_t i = 0; i < out->rows.size(); ++i) {
    for (size_t j = i + 1; j < out->rows.size(); ++j) {
      if (out->rows[i].label == out->rows[j].label) {
        err->Add(path + "/workload", "duplicate row label \"" + out->rows[i].label + "\"");
      }
    }
  }
}

void ParseTable(const JsonValue* v, const std::string& path, Scenario* out, ScenarioError* err) {
  if (v == nullptr) {
    return;
  }
  SpecReader reader(*v, path + "/table", *err);
  std::string style;
  if (reader.TakeEnum("style", &style,
                      {"none", "speedup", "underload", "bands", "latency", "energy", "wakeup"})) {
    if (style == "none") {
      out->table.style = TableSpec::Style::kNone;
    } else if (style == "speedup") {
      out->table.style = TableSpec::Style::kSpeedup;
    } else if (style == "underload") {
      out->table.style = TableSpec::Style::kUnderload;
    } else if (style == "latency") {
      out->table.style = TableSpec::Style::kLatency;
    } else if (style == "energy") {
      out->table.style = TableSpec::Style::kEnergy;
    } else if (style == "wakeup") {
      out->table.style = TableSpec::Style::kWakeup;
    } else {
      out->table.style = TableSpec::Style::kBands;
    }
  }
  reader.TakeString("row_header", &out->table.row_header);
  reader.TakeInt("row_width", &out->table.row_width, 1, 64);
  reader.TakeString("row_suffix", &out->table.row_suffix);
  reader.TakeBool("underload_column", &out->table.underload_column);
  reader.Finish();
}

// The optional top-level "cluster" object (src/cluster/): runs every job as
// a fleet of `machines` identical boxes behind the named router. Only the
// open-loop "requests" family routes, so anything else is a parse error.
void ParseCluster(const JsonValue* v, const std::string& path, Scenario* out,
                  ScenarioError* err) {
  if (v == nullptr) {
    return;
  }
  const std::string cpath = path + "/cluster";
  SpecReader reader(*v, cpath, *err);
  out->has_cluster = true;
  // Named fleet sizes for rack-scale runs (docs/DOMAINS.md). Applied
  // before "machines" so an explicit machine count overrides the preset.
  std::string preset;
  reader.TakeEnum("preset", &preset, {"rack8", "rack16", "rack32"});
  if (preset == "rack8") {
    out->cluster_machines = 8;
  } else if (preset == "rack16") {
    out->cluster_machines = 16;
  } else if (preset == "rack32") {
    out->cluster_machines = 32;
  }
  reader.TakeInt("machines", &out->cluster_machines, 1, 64);
  reader.TakeEnum("router", &out->cluster_router, RouterNames());
  reader.Finish();
  if (!out->family.empty() && out->family != "requests") {
    err->Add(cpath, "cluster scenarios need the \"requests\" workload family, got \"" +
                        out->family + "\"");
  }
}

void ParseConfigAndSweep(SpecReader& reader, Scenario* out, ScenarioError* err) {
  // Both are validated by applying to a scratch config, so bad keys, types,
  // and ranges surface at parse time, not mid-campaign.
  ExperimentConfig scratch;
  if (const JsonValue* config = reader.Take("config")) {
    if (!config->is_object()) {
      reader.AddError(std::string("\"config\" must be an object, got ") +
                      JsonTypeName(config->type));
    } else {
      out->has_config = true;
      out->config = *config;
      for (const auto& [key, value] : config->members) {
        ApplyConfigOverride(&scratch, key, value, reader.path() + "/config", err);
      }
    }
  }
  if (const JsonValue* sweep = reader.Take("sweep")) {
    if (!sweep->is_object() || sweep->members.empty()) {
      reader.AddError("\"sweep\" must be a non-empty object mapping config keys to value arrays");
    } else {
      for (const auto& [key, values] : sweep->members) {
        const std::string spath = reader.path() + "/sweep/" + key;
        if (!values.is_array() || values.items.empty()) {
          err->Add(spath, "sweep values must be a non-empty array");
          continue;
        }
        SweepAxis axis;
        axis.key = key;
        for (const JsonValue& value : values.items) {
          if (ApplyConfigOverride(&scratch, key, value, spath, err)) {
            axis.values.push_back(value);
          }
        }
        if (!axis.values.empty()) {
          out->sweep.push_back(std::move(axis));
        }
      }
    }
  }
}

}  // namespace

bool ParseScenario(const JsonValue& root, const std::string& file_label, Scenario* out,
                   ScenarioError* err) {
  *out = Scenario{};
  SpecReader reader(root, file_label, *err);

  if (reader.TakeString("name", &out->name, /*required=*/true) && !ValidName(out->name)) {
    reader.AddError("\"name\" must match [a-z0-9_-]+ (it names the baseline file), got \"" +
                    out->name + "\"");
  }
  reader.TakeString("title", &out->title);
  reader.TakeString("description", &out->description);

  ParseMachines(reader.Take("machines"), file_label, out, err);
  ParseVariants(reader.Take("variants"), file_label, out, err);
  ParseWorkload(reader.Take("workload"), file_label, out, err);
  ParseCluster(reader.Take("cluster"), file_label, out, err);

  reader.TakeInt("repetitions", &out->repetitions, 1, 1000000);
  reader.TakeU64("base_seed", &out->base_seed);
  reader.TakeDouble("timeout_s", &out->timeout_s, 0.0, 1e9);

  ParseConfigAndSweep(reader, out, err);
  ParseTable(reader.Take("table"), file_label, out, err);
  reader.Finish();

  if (out->variants.empty() && err->ok()) {
    err->Add(file_label, "no variants");
  }
  // The oracle's record/replay protocol lives inside single-machine
  // RunExperiment (src/core/experiment.cc); the cluster runner has no
  // recording pass, and a fleet's machines cannot share one plan sink.
  if (out->has_cluster) {
    for (const ScenarioVariant& variant : out->variants) {
      if (variant.scheduler == SchedulerKind::kNestOracle) {
        err->Add(file_label, "variant \"" + variant.label +
                                 "\": nest_oracle cannot run under \"cluster\" (the oracle " +
                                 "record/replay protocol is single-machine only)");
      }
    }
  }
  return err->ok();
}

bool ReadInputFile(std::istream& in, const std::string& path, std::string* text,
                   ScenarioError* err) {
  text->clear();
  char chunk[1 << 16];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    const auto got = static_cast<size_t>(in.gcount());
    if (text->size() + got > kMaxInputFileBytes) {
      err->Add(path, "file is larger than the " + std::to_string(kMaxInputFileBytes >> 20) +
                         " MiB input limit (" + std::to_string(kMaxInputFileBytes) + " bytes)");
      return false;
    }
    text->append(chunk, got);
  }
  return true;
}

bool LoadScenario(const std::string& path, Scenario* out, ScenarioError* err) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    err->Add(path, "cannot open scenario file");
    return false;
  }
  std::string text;
  if (!ReadInputFile(in, path, &text, err)) {
    return false;
  }

  JsonValue root;
  std::string json_error;
  if (!JsonParse(text, &root, &json_error)) {
    err->Add(path, "invalid JSON: " + json_error);
    return false;
  }
  // Error paths use the basename so messages stay short.
  const size_t slash = path.find_last_of('/');
  const std::string label = slash == std::string::npos ? path : path.substr(slash + 1);
  return ParseScenario(root, label, out, err);
}

}  // namespace nestsim
