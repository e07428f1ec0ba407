#include "src/check/generator.h"

#include <cmath>
#include <utility>
#include <vector>

#include "src/sim/random.h"

namespace nestsim {

namespace {

// ---- JsonValue builders --------------------------------------------------

JsonValue Num(double v) {
  JsonValue out;
  out.type = JsonValue::Type::kNumber;
  out.number = v;
  return out;
}

JsonValue Str(std::string v) {
  JsonValue out;
  out.type = JsonValue::Type::kString;
  out.string = std::move(v);
  return out;
}

JsonValue Bool(bool v) {
  JsonValue out;
  out.type = JsonValue::Type::kBool;
  out.boolean = v;
  return out;
}

JsonValue Obj() {
  JsonValue out;
  out.type = JsonValue::Type::kObject;
  return out;
}

JsonValue Arr() {
  JsonValue out;
  out.type = JsonValue::Type::kArray;
  return out;
}

void Add(JsonValue& obj, std::string key, JsonValue value) {
  obj.members.emplace_back(std::move(key), std::move(value));
}

void Push(JsonValue& arr, JsonValue value) { arr.items.push_back(std::move(value)); }

// ---- draws ---------------------------------------------------------------

// Keeps generated doubles readable (and %.17g-noise-free) in repro files.
double Round3(double v) { return std::round(v * 1000.0) / 1000.0; }

double Uniform(Rng& rng, double lo, double hi) { return Round3(rng.NextDouble(lo, hi)); }

int IntIn(Rng& rng, int lo, int hi) { return static_cast<int>(rng.NextInt(lo, hi)); }

struct Weighted {
  const char* name;
  int weight;
};

const char* Pick(Rng& rng, const std::vector<Weighted>& table) {
  int total = 0;
  for (const Weighted& w : table) {
    total += w.weight;
  }
  int draw = IntIn(rng, 0, total - 1);
  for (const Weighted& w : table) {
    draw -= w.weight;
    if (draw < 0) {
      return w.name;
    }
  }
  return table.back().name;
}

// ---- per-family parameter draws -----------------------------------------
// Every range below sits strictly inside the registry's validated range
// (src/scenario/registry.cc), biased small so a fuzz run stays fast.

JsonValue HackbenchParams(Rng& rng) {
  JsonValue p = Obj();
  Add(p, "groups", Num(IntIn(rng, 1, 4)));
  Add(p, "fan", Num(IntIn(rng, 1, 4)));
  Add(p, "loops", Num(IntIn(rng, 2, 30)));
  return p;
}

JsonValue SchbenchParams(Rng& rng) {
  JsonValue p = Obj();
  Add(p, "message_threads", Num(IntIn(rng, 1, 3)));
  Add(p, "workers_per_thread", Num(IntIn(rng, 1, 4)));
  Add(p, "rounds", Num(IntIn(rng, 2, 30)));
  Add(p, "work_ms", Num(Uniform(rng, 0.01, 2.0)));
  return p;
}

JsonValue ConfigureParams(Rng& rng) {
  JsonValue p = Obj();
  Add(p, "num_tests", Num(IntIn(rng, 5, 60)));
  Add(p, "child_work_ms", Num(Uniform(rng, 0.05, 8.0)));
  Add(p, "child_sigma", Num(Uniform(rng, 0.0, 1.0)));
  Add(p, "pipeline_prob", Num(Uniform(rng, 0.0, 1.0)));
  Add(p, "concurrent_prob", Num(Uniform(rng, 0.0, 1.0)));
  Add(p, "long_test_prob", Num(Uniform(rng, 0.0, 0.3)));
  return p;
}

JsonValue DacapoParams(Rng& rng) {
  JsonValue p = Obj();
  Add(p, "workers", Num(IntIn(rng, 1, 8)));
  Add(p, "compute_ms", Num(Uniform(rng, 0.1, 8.0)));
  Add(p, "sigma", Num(Uniform(rng, 0.0, 1.0)));
  Add(p, "sleep_ms", Num(Uniform(rng, 0.0, 4.0)));
  Add(p, "iterations", Num(IntIn(rng, 1, 20)));
  Add(p, "lock_fraction", Num(Uniform(rng, 0.0, 0.5)));
  if (rng.NextBool(0.3)) {
    Add(p, "aux_threads", Num(IntIn(rng, 1, 2)));
    Add(p, "aux_compute_ms", Num(Uniform(rng, 0.1, 2.0)));
    Add(p, "aux_period_ms", Num(Uniform(rng, 1.0, 10.0)));
  }
  return p;
}

// threads == 0 means one worker per CPU: the full-machine-load shape.
JsonValue NasParams(Rng& rng, bool* full_load) {
  JsonValue p = Obj();
  const int threads = rng.NextBool(0.4) ? 0 : IntIn(rng, 1, 8);
  *full_load = threads == 0;
  Add(p, "threads", Num(threads));
  Add(p, "iter_compute_ms", Num(Uniform(rng, 0.1, 4.0)));
  Add(p, "iterations", Num(IntIn(rng, 2, 20)));
  Add(p, "jitter", Num(Uniform(rng, 0.0, 0.5)));
  Add(p, "serial_setup_ms", Num(Uniform(rng, 0.0, 2.0)));
  return p;
}

JsonValue PhoronixParams(Rng& rng) {
  static const char* kStyles[] = {"pool", "openmp", "pipeline", "full_parallel",
                                  "serial_bursts"};
  JsonValue p = Obj();
  Add(p, "style", Str(kStyles[IntIn(rng, 0, 4)]));
  Add(p, "threads", Num(IntIn(rng, 1, 8)));
  Add(p, "item_ms", Num(Uniform(rng, 0.05, 4.0)));
  Add(p, "sigma", Num(Uniform(rng, 0.0, 1.0)));
  Add(p, "items", Num(IntIn(rng, 5, 80)));
  Add(p, "gap_ms", Num(Uniform(rng, 0.0, 2.0)));
  return p;
}

// Open-loop request traffic for cluster scenarios; rates and durations are
// kept low so a fleet of up to 4 machines stays cheap per fuzz iteration.
JsonValue RequestsParams(Rng& rng) {
  JsonValue p = Obj();
  Add(p, "rate_per_s", Num(Uniform(rng, 50.0, 400.0)));
  Add(p, "arrivals", Str(rng.NextBool(0.3) ? "bursty" : "poisson"));
  Add(p, "duration_s", Num(Uniform(rng, 0.05, 0.3)));
  Add(p, "service_ms", Num(Uniform(rng, 0.1, 2.0)));
  Add(p, "service_sigma", Num(Uniform(rng, 0.0, 1.0)));
  if (rng.NextBool(0.3)) {
    Add(p, "io_pause_ms", Num(Uniform(rng, 0.0, 1.0)));
  }
  if (rng.NextBool(0.3)) {
    Add(p, "fanout", Num(IntIn(rng, 1, 3)));
    Add(p, "fanout_service_ms", Num(Uniform(rng, 0.05, 0.5)));
  }
  if (rng.NextBool(0.2)) {
    Add(p, "diurnal_depth", Num(Uniform(rng, 0.1, 0.8)));
    Add(p, "diurnal_period_s", Num(Uniform(rng, 0.05, 0.2)));
  }
  return p;
}

JsonValue ServerParams(Rng& rng) {
  static const char* kStyles[] = {"thread_per_request", "event_loop", "key_value_store"};
  JsonValue p = Obj();
  Add(p, "style", Str(kStyles[IntIn(rng, 0, 2)]));
  Add(p, "workers", Num(IntIn(rng, 1, 6)));
  Add(p, "clients", Num(IntIn(rng, 1, 6)));
  Add(p, "requests_per_client", Num(IntIn(rng, 2, 40)));
  Add(p, "service_ms", Num(Uniform(rng, 0.05, 4.0)));
  Add(p, "service_sigma", Num(Uniform(rng, 0.0, 1.0)));
  Add(p, "io_pause_ms", Num(Uniform(rng, 0.0, 2.0)));
  Add(p, "client_think_ms", Num(Uniform(rng, 0.0, 2.0)));
  return p;
}

// One non-multi (family, params) draw; `full_load` only set by nas.
std::pair<std::string, JsonValue> DrawMember(Rng& rng, bool* full_load) {
  const char* family = Pick(rng, {{"hackbench", 20},
                                  {"configure", 16},
                                  {"dacapo", 16},
                                  {"nas", 16},
                                  {"phoronix", 12},
                                  {"server", 12},
                                  {"schbench", 8}});
  const std::string name = family;
  if (name == "hackbench") {
    return {name, HackbenchParams(rng)};
  }
  if (name == "configure") {
    return {name, ConfigureParams(rng)};
  }
  if (name == "dacapo") {
    return {name, DacapoParams(rng)};
  }
  if (name == "nas") {
    return {name, NasParams(rng, full_load)};
  }
  if (name == "phoronix") {
    return {name, PhoronixParams(rng)};
  }
  if (name == "server") {
    return {name, ServerParams(rng)};
  }
  return {name, SchbenchParams(rng)};
}

// ---- config overrides / sweep axes --------------------------------------

JsonValue DrawOverrideValue(Rng& rng, const std::string& key) {
  if (key == "nest.r_max") {
    return Num(IntIn(rng, 0, 8));
  }
  if (key == "nest.r_impatient") {
    return Num(IntIn(rng, 0, 4));
  }
  if (key == "nest.p_remove_ticks") {
    return Num(IntIn(rng, 0, 10));
  }
  if (key == "nest.s_max_ticks") {
    return Num(IntIn(rng, 0, 10));
  }
  if (key == "smove.low_freq_fraction") {
    return Num(Uniform(rng, 0.3, 1.0));
  }
  if (key == "smove.move_delay_us") {
    return Num(IntIn(rng, 0, 200));
  }
  // Cache-model knobs (docs/MODEL.md §5): moderate ranges so a full-load
  // draw cannot skew the cfs↔nest neutrality pair past the 35% band —
  // both schedulers keep one task per core there, so warmth effects land
  // nearly symmetrically.
  if (key == "cache.warm_speedup") {
    return Num(Uniform(rng, 1.0, 2.0));
  }
  if (key == "cache.migration_cost_work") {
    return Num(IntIn(rng, 0, 2000000));
  }
  if (key == "cache.warm_threshold" || key == "nest_cache.warm_bias_threshold") {
    return Num(Uniform(rng, 0.0, 1.0));
  }
  if (key == "nest_cache.compaction_grace_ticks") {
    return Num(IntIn(rng, 0, 8));
  }
  // nest.enable_* / nest_cache.enable_* toggles
  return Bool(rng.NextBool(0.5));
}

const std::vector<const char*>& OverrideKeyPool() {
  static const std::vector<const char*>* keys = new std::vector<const char*>{
      "nest.r_max",           "nest.r_impatient",
      "nest.p_remove_ticks",  "nest.s_max_ticks",
      "nest.enable_reserve",  "nest.enable_compaction",
      "nest.enable_spin",     "nest.enable_attach",
      "nest.enable_impatience", "smove.low_freq_fraction",
      "smove.move_delay_us",
      "cache.warm_speedup",   "cache.migration_cost_work",
      "cache.warm_threshold", "nest_cache.warm_bias_threshold",
      "nest_cache.compaction_grace_ticks",
      "nest_cache.enable_warm_anchor",
      "nest_cache.enable_cost_aware_expansion",
      "nest_cache.enable_compaction_grace",
  };
  return *keys;
}

}  // namespace

GeneratedScenario GenerateScenario(uint64_t seed) {
  Rng rng(seed ^ 0x6e657374ULL);  // decouple from workload seeds ("nest")

  GeneratedScenario out;
  out.seed = seed;
  JsonValue spec = Obj();
  Add(spec, "name", Str("fuzz-" + std::to_string(seed)));
  Add(spec, "description", Str("generated by nestsim_fuzz (seed " + std::to_string(seed) + ")"));

  // One machine, biased toward the small presets so a fuzz campaign is cheap;
  // the big multi-socket boxes keep cross-die placement covered, and the
  // huge 8153 presets (docs/DOMAINS.md) keep 128/256-CPU topologies in the
  // fuzzed population at a weight a fuzz campaign can afford.
  JsonValue machines = Arr();
  Push(machines, Str(Pick(rng, {{"amd-4650g-1s", 26},
                                {"intel-5220-1s", 26},
                                {"intel-5218-2s", 17},
                                {"intel-6130-2s", 11},
                                {"intel-6130-4s", 6},
                                {"intel-e78870v4-4s", 6},
                                {"intel-8153-4s", 4},
                                {"intel-8153-8s", 4}})));
  Add(spec, "machines", machines);

  // Resilience/energy knobs ride along a fifth of the time (docs/FAULTS.md):
  // kind 0 injects core failures (plus machine crashes on cluster draws),
  // kind 1 replicates tasks with a quorum join, kind 2 does both at once,
  // kind 3 runs under a per-socket power cap with the budget governor. All of
  // them are pre-drawn from the run seed, so the serial and pooled passes
  // must still produce identical digests — exactly what the differential
  // cross-checks.
  const int resilience = rng.NextBool(0.2) ? IntIn(rng, 0, 3) : -1;
  const bool with_faults = resilience == 0 || resilience == 2;
  const bool with_replicas = resilience == 1 || resilience == 2;
  const bool with_budget = resilience == 3;

  // A quarter of the scenarios run as a cluster (src/cluster/): the fleet
  // requires the open-loop "requests" family, so the cluster draw happens
  // before the workload draw and pins the family when it fires. It also
  // happens before the variant draws: nest_oracle is single-machine only
  // (the parser rejects it under `cluster`), so the oracle draw needs it.
  const bool cluster = rng.NextBool(0.25);

  // cfs + nest always (the differential pair); smove rides along half the
  // time. One governor for the whole scenario keeps variants comparable; the
  // power-cap draw forces `budget` since the cap is inert under the others.
  const std::string governor =
      with_budget ? "budget" : (rng.NextBool(0.5) ? "schedutil" : "performance");
  const bool with_smove = rng.NextBool(0.5);
  // The cache-aware Nest variant rides along a fifth of the time; it skips
  // the neutrality pairing (that check only pairs nest with cfs) but flows
  // through the determinism and accounting cross-checks like any variant.
  const bool with_nest_cache = rng.NextBool(0.2);
  // Under a power cap, the budget-aware Nest joins half the time so the
  // shrink-the-mask ladder gets fuzzed against the same scenarios.
  const bool with_nest_budget = with_budget && rng.NextBool(0.5);
  // The prediction-layer variants (docs/PREDICTION.md) each ride along ~15%
  // of the time: nest_predict loads the committed tiny table model so the
  // biased first step actually fires, and nest_oracle runs the two-pass
  // record/replay protocol — never on cluster draws, which the parser
  // rejects for it.
  const bool with_nest_predict = rng.NextBool(0.15);
  const bool with_nest_oracle = !cluster && rng.NextBool(0.15);
  JsonValue variants = Arr();
  for (const char* policy :
       {"cfs", "nest", "smove", "nest_cache", "nest_budget", "nest_predict", "nest_oracle"}) {
    if (std::string(policy) == "smove" && !with_smove) {
      continue;
    }
    if (std::string(policy) == "nest_cache" && !with_nest_cache) {
      continue;
    }
    if (std::string(policy) == "nest_budget" && !with_nest_budget) {
      continue;
    }
    if (std::string(policy) == "nest_predict" && !with_nest_predict) {
      continue;
    }
    if (std::string(policy) == "nest_oracle" && !with_nest_oracle) {
      continue;
    }
    JsonValue variant = Obj();
    Add(variant, "label", Str(policy));
    Add(variant, "scheduler", Str(policy));
    Add(variant, "governor", Str(governor));
    Push(variants, variant);
  }
  Add(spec, "variants", variants);

  // Workload: one custom row; occasionally a multi composition.
  JsonValue workload = Obj();
  if (cluster) {
    Add(workload, "family", Str("requests"));
    Add(workload, "params", RequestsParams(rng));
  } else if (rng.NextBool(0.15)) {
    JsonValue members = Arr();
    const int count = IntIn(rng, 2, 3);
    for (int i = 0; i < count; ++i) {
      bool ignored = false;
      auto [family, params] = DrawMember(rng, &ignored);
      JsonValue member = Obj();
      Add(member, "family", Str(family));
      Add(member, "params", params);
      Push(members, member);
    }
    JsonValue params = Obj();
    Add(params, "members", members);
    Add(workload, "family", Str("multi"));
    Add(workload, "params", params);
  } else {
    auto [family, params] = DrawMember(rng, &out.full_load);
    Add(workload, "family", Str(family));
    Add(workload, "params", params);
  }
  Add(spec, "workload", workload);

  if (cluster) {
    static const char* kRouters[] = {"passthrough", "round-robin", "least-loaded", "power-aware"};
    JsonValue block = Obj();
    // Mostly small fleets; a fifth of cluster draws go up to 8 machines so
    // the coordinator routes across wider domain fan-outs.
    Add(block, "machines", Num(rng.NextBool(0.2) ? IntIn(rng, 5, 8) : IntIn(rng, 1, 4)));
    Add(block, "router", Str(kRouters[IntIn(rng, 0, 3)]));
    Add(spec, "cluster", block);
  }

  Add(spec, "repetitions", Num(1));
  Add(spec, "base_seed", Num(1 + static_cast<double>(rng.NextBounded(1000000))));

  // time_limit_s always bounds the simulated run; extra overrides half the
  // time exercise the policy-parameter surface.
  JsonValue config = Obj();
  Add(config, "time_limit_s", Num(20));
  if (rng.NextBool(0.5)) {
    const auto& pool = OverrideKeyPool();
    const int extras = IntIn(rng, 1, 2);
    for (int i = 0; i < extras; ++i) {
      const std::string key = pool[static_cast<size_t>(rng.NextBounded(pool.size()))];
      if (config.Find(key) == nullptr) {
        Add(config, key, DrawOverrideValue(rng, key));
      }
    }
  }
  // Resilience knob values stay modest: every variant sees the identical
  // pre-drawn fault plan, but the blast radius is placement-dependent, and
  // the full-load cfs↔nest neutrality band has to absorb that skew.
  // Replication is a fleet feature (ParseScenario refuses `replicas` above 1
  // without a cluster block), so a replica draw on a single-machine scenario
  // falls back to fault injection and the gate's fifth always buys coverage.
  const bool draw_replicas = with_replicas && cluster;
  const bool draw_faults = with_faults || (with_replicas && !cluster);
  if (draw_faults) {
    Add(config, "fault.core_fail_rate_per_s", Num(Uniform(rng, 2.0, 40.0)));
    Add(config, "fault.core_downtime_ms", Num(Uniform(rng, 5.0, 40.0)));
    if (cluster && rng.NextBool(0.5)) {
      Add(config, "fault.machine_fail_rate_per_s", Num(Uniform(rng, 0.5, 4.0)));
      Add(config, "fault.machine_downtime_ms", Num(Uniform(rng, 5.0, 40.0)));
    }
  }
  if (draw_replicas) {
    const int replicas = IntIn(rng, 2, 3);
    Add(config, "replicas", Num(replicas));
    Add(config, "fault.quorum", Num(IntIn(rng, 0, replicas)));
  }
  if (with_budget) {
    // Loose enough that every machine preset makes progress under the cap,
    // tight enough that the governor actually throttles on the small boxes.
    Add(config, "power.budget_w", Num(Uniform(rng, 20.0, 60.0)));
    if (rng.NextBool(0.3)) {
      Add(config, "power.headroom_fraction", Num(Uniform(rng, 0.7, 1.0)));
    }
  }
  if (with_nest_predict) {
    Add(config, "predict.model_file", Str(kGeneratedModelFile));
  }
  if (with_nest_oracle && rng.NextBool(0.5)) {
    Add(config, "predict.oracle_window_ms", Num(Uniform(rng, 1.0, 50.0)));
    Add(config, "predict.oracle_margin", Num(IntIn(rng, 0, 3)));
  }
  Add(spec, "config", config);

  if (rng.NextBool(0.3)) {
    JsonValue sweep = Obj();
    const char* axis = Pick(rng, {{"nest.r_max", 30},
                                  {"nest.r_impatient", 25},
                                  {"nest.s_max_ticks", 25},
                                  {"smove.move_delay_us", 20}});
    JsonValue values = Arr();
    const int count = IntIn(rng, 2, 3);
    for (int i = 0; i < count; ++i) {
      JsonValue v = DrawOverrideValue(rng, axis);
      // Distinct sweep points read better in repros; duplicates are valid
      // but pointless.
      bool dup = false;
      for (const JsonValue& seen : values.items) {
        dup = dup || seen.number == v.number;
      }
      if (!dup) {
        Push(values, v);
      }
    }
    Add(sweep, axis, values);
    Add(spec, "sweep", sweep);
  }

  JsonValue table = Obj();
  Add(table, "style", Str("none"));
  Add(spec, "table", table);

  out.json = JsonSerialize(spec, 2);
  out.json += '\n';
  out.spec = std::move(spec);
  return out;
}

}  // namespace nestsim
