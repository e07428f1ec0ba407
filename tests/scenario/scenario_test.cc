// Parser strictness for declarative scenarios: every unknown key, bad enum,
// and out-of-range value must surface as an actionable error naming the JSON
// path and the allowed alternatives.

#include "src/scenario/scenario.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "src/scenario/registry.h"

namespace nestsim {
namespace {

Scenario MustParse(const std::string& json) {
  JsonValue root;
  std::string json_error;
  EXPECT_TRUE(JsonParse(json, &root, &json_error)) << json_error;
  Scenario scenario;
  ScenarioError err;
  EXPECT_TRUE(ParseScenario(root, "test", &scenario, &err)) << err.Join();
  return scenario;
}

ScenarioError MustFail(const std::string& json) {
  JsonValue root;
  std::string json_error;
  EXPECT_TRUE(JsonParse(json, &root, &json_error)) << json_error;
  Scenario scenario;
  ScenarioError err;
  EXPECT_FALSE(ParseScenario(root, "test", &scenario, &err)) << "accepted: " << json;
  return err;
}

bool Mentions(const ScenarioError& err, const std::string& needle) {
  return err.Join().find(needle) != std::string::npos;
}

TEST(ScenarioParseTest, MinimalScenarioGetsDefaults) {
  const Scenario s = MustParse(R"({"name":"t","workload":{"family":"configure"}})");
  EXPECT_EQ(s.name, "t");
  EXPECT_EQ(s.machines.size(), 4u);  // paper machines
  EXPECT_EQ(s.variants.size(), 4u);  // standard set
  EXPECT_EQ(s.variants[0].label, "CFS sched");
  EXPECT_EQ(s.variants[0].column, "CFS sched (s)");
  EXPECT_EQ(s.rows.size(), 11u);  // all configure packages
  EXPECT_EQ(s.repetitions, 2);
  EXPECT_EQ(s.base_seed, 1u);
  EXPECT_TRUE(s.sweep.empty());
  EXPECT_EQ(s.table.style, TableSpec::Style::kSpeedup);
}

TEST(ScenarioParseTest, StandardPlusSmoveAddsTheFifthColumn) {
  const Scenario s = MustParse(
      R"({"name":"t","variants":"standard+smove","workload":{"family":"nas"}})");
  ASSERT_EQ(s.variants.size(), 5u);
  EXPECT_EQ(s.variants[4].label, "Smove sched");
  EXPECT_EQ(s.variants[4].column, "Smove sch");
  EXPECT_EQ(s.variants[4].scheduler, SchedulerKind::kSmove);
}

TEST(ScenarioParseTest, ExplicitMachinesVariantsRows) {
  const Scenario s = MustParse(R"({
    "name":"t",
    "machines":["intel-5218-2s","amd-4650g-1s"],
    "variants":[{"label":"Nest","scheduler":"nest","governor":"performance","column":"N"}],
    "workload":{"family":"configure","presets":["gcc","php"]},
    "base_seed":42,"repetitions":3,"timeout_s":10.5
  })");
  EXPECT_EQ(s.machines, (std::vector<std::string>{"intel-5218-2s", "amd-4650g-1s"}));
  ASSERT_EQ(s.variants.size(), 1u);
  EXPECT_EQ(s.variants[0].scheduler, SchedulerKind::kNest);
  EXPECT_EQ(s.variants[0].governor, "performance");
  EXPECT_EQ(s.variants[0].column, "N");
  EXPECT_EQ(s.variants[0].band_label, "Nest");  // defaults to label
  ASSERT_EQ(s.rows.size(), 2u);
  EXPECT_EQ(s.rows[0].label, "gcc");
  EXPECT_EQ(s.base_seed, 42u);
  EXPECT_EQ(s.repetitions, 3);
  EXPECT_DOUBLE_EQ(s.timeout_s, 10.5);
}

TEST(ScenarioParseTest, UnknownTopLevelKeyListsTheKnownOnes) {
  const ScenarioError err =
      MustFail(R"({"name":"t","workload":{"family":"nas"},"mystery":1})");
  EXPECT_TRUE(Mentions(err, "unknown key \"mystery\"")) << err.Join();
  EXPECT_TRUE(Mentions(err, "workload")) << err.Join();  // the known-keys list
}

TEST(ScenarioParseTest, BadEnumNamesTheAlternatives) {
  const ScenarioError err = MustFail(
      R"({"name":"t","variants":[{"label":"x","scheduler":"nests","governor":"schedutil"}],
          "workload":{"family":"nas"}})");
  EXPECT_TRUE(Mentions(err, "unknown value \"nests\"")) << err.Join();
  EXPECT_TRUE(Mentions(err, "cfs, nest, smove")) << err.Join();
}

TEST(ScenarioParseTest, OutOfRangeValueNamesTheRange) {
  const ScenarioError err =
      MustFail(R"({"name":"t","workload":{"family":"nas"},"repetitions":0})");
  EXPECT_TRUE(Mentions(err, "\"repetitions\" out of range")) << err.Join();
  EXPECT_TRUE(Mentions(err, "[1, 1000000]")) << err.Join();
}

TEST(ScenarioParseTest, EveryProblemIsReportedAtOnce) {
  const ScenarioError err = MustFail(R"({
    "name":"Bad Name",
    "machines":["nope"],
    "workload":{"family":"wat"},
    "repetitions":-1,
    "mystery":true
  })");
  EXPECT_GE(err.errors.size(), 5u) << err.Join();
  EXPECT_TRUE(Mentions(err, "[a-z0-9_-]+"));
  EXPECT_TRUE(Mentions(err, "unknown machine \"nope\""));
  EXPECT_TRUE(Mentions(err, "unknown workload family \"wat\""));
}

TEST(ScenarioParseTest, UnknownPresetListsFamilyPresets) {
  const ScenarioError err =
      MustFail(R"({"name":"t","workload":{"family":"nas","presets":["bt","zz"]}})");
  EXPECT_TRUE(Mentions(err, "no preset \"zz\"")) << err.Join();
  EXPECT_TRUE(Mentions(err, "bt, cg, ep")) << err.Join();
}

TEST(ScenarioParseTest, PresetGroupsResolve) {
  const Scenario fig13 =
      MustParse(R"({"name":"t","workload":{"family":"phoronix","presets":"fig13"}})");
  EXPECT_EQ(fig13.rows.size(), 27u);
  const Scenario table4 =
      MustParse(R"({"name":"t","workload":{"family":"phoronix","presets":"table4"}})");
  EXPECT_EQ(table4.rows.size(), 222u);
  EXPECT_EQ(table4.rows.back().label, "synthetic-221");
}

TEST(ScenarioParseTest, RowParamsAreValidatedAtParseTime) {
  const ScenarioError err = MustFail(R"({
    "name":"t",
    "workload":{"family":"configure","rows":[
      {"label":"x","params":{"preset":"gcc","num_tests":0,"colour":"red"}}]}
  })");
  EXPECT_TRUE(Mentions(err, "\"num_tests\" out of range")) << err.Join();
  EXPECT_TRUE(Mentions(err, "unknown key \"colour\"")) << err.Join();
}

TEST(ScenarioParseTest, ParamlessRowMustBeAPreset) {
  const ScenarioError err = MustFail(
      R"({"name":"t","workload":{"family":"configure","rows":[{"label":"made-up"}]}})");
  EXPECT_TRUE(Mentions(err, "not a \"configure\" preset")) << err.Join();
}

TEST(ScenarioParseTest, DuplicateRowAndVariantLabelsAreRejected) {
  EXPECT_TRUE(Mentions(
      MustFail(R"({"name":"t","workload":{"family":"nas","presets":["bt","bt"]}})"),
      "duplicate row label \"bt\""));
  EXPECT_TRUE(Mentions(
      MustFail(R"({"name":"t","workload":{"family":"nas"},"variants":[
        {"label":"a","scheduler":"cfs","governor":"schedutil"},
        {"label":"a","scheduler":"nest","governor":"schedutil"}]})"),
      "duplicate label \"a\""));
}

TEST(ScenarioParseTest, MultiFamilyRequiresMembers) {
  EXPECT_TRUE(Mentions(MustFail(R"({"name":"t","workload":{"family":"multi"}})"),
                       "needs \"params\""));
  EXPECT_TRUE(Mentions(
      MustFail(R"({"name":"t","workload":{"family":"multi","params":{"members":[
        {"family":"multi","params":{"members":[]}},
        {"family":"configure","preset":"gcc"}]}}})"),
      "cannot nest another \"multi\""));
}

TEST(ScenarioParseTest, MultiCompositionParses) {
  const Scenario s = MustParse(R"({
    "name":"t",
    "workload":{"family":"multi","params":{"members":[
      {"family":"configure","preset":"gcc"},
      {"family":"hackbench","params":{"groups":2,"fan":2,"loops":10}}]}}
  })");
  ASSERT_EQ(s.rows.size(), 1u);
  EXPECT_TRUE(s.rows[0].has_params);
}

TEST(ScenarioParseTest, ConfigOverridesAreValidated) {
  const Scenario ok = MustParse(R"({
    "name":"t","workload":{"family":"nas"},
    "config":{"nest.r_max":5,"record_trace":true,"time_limit_s":30}
  })");
  EXPECT_TRUE(ok.has_config);

  const ScenarioError bad = MustFail(R"({
    "name":"t","workload":{"family":"nas"},
    "config":{"nest.r_max":99999,"nest.unknown":1}
  })");
  EXPECT_TRUE(Mentions(bad, "expects integer in [0, 4096]")) << bad.Join();
  EXPECT_TRUE(Mentions(bad, "unknown config key \"nest.unknown\"")) << bad.Join();
  EXPECT_TRUE(Mentions(bad, "nest.p_remove_ticks")) << bad.Join();  // known-keys list
}

// A scenario that still sets a removed parallel.* key gets the ordinary
// unknown-key diagnostic.
TEST(ScenarioParseTest, RemovedParallelKeysAreUnknown) {
  const ScenarioError err = MustFail(R"({
    "name":"t","workload":{"family":"nas"},
    "config":{"parallel.workers":4}
  })");
  EXPECT_TRUE(Mentions(err, "unknown config key \"parallel.workers\"")) << err.Join();
}

TEST(ScenarioParseTest, FaultAndPowerOverridesAreValidated) {
  // The fault/replica/budget family (docs/FAULTS.md §8) rides the same
  // override table as every other key: accepted in config and sweep, range-
  // checked per value, unknown spellings rejected with the known-keys list.
  // Replication is a fleet feature, so the spec that sets it has a cluster.
  const Scenario ok = MustParse(R"({
    "name":"t","workload":{"family":"requests"},"cluster":{"machines":1},
    "config":{"fault.core_fail_rate_per_s":20.0,"fault.core_downtime_ms":30.0,
              "fault.machine_fail_rate_per_s":1.0,"fault.machine_downtime_ms":50.0,
              "fault.horizon_s":10.0,"replicas":2,"fault.quorum":1,
              "power.headroom_fraction":0.9,"nest_budget.min_primary":2},
    "sweep":{"power.budget_w":[0.0,35.0,20.0]}
  })");
  EXPECT_TRUE(ok.has_config);
  ASSERT_EQ(ok.sweep.size(), 1u);
  EXPECT_EQ(ok.sweep[0].key, "power.budget_w");

  const ScenarioError rate = MustFail(R"({
    "name":"t","workload":{"family":"nas"},
    "config":{"fault.core_fail_rate_per_s":5000.0}
  })");
  EXPECT_TRUE(Mentions(rate, "fault.core_fail_rate_per_s")) << rate.Join();
  EXPECT_TRUE(Mentions(rate, "expects number in [0, 1000]")) << rate.Join();

  const ScenarioError replicas = MustFail(R"({
    "name":"t","workload":{"family":"nas"},
    "config":{"replicas":0}
  })");
  EXPECT_TRUE(Mentions(replicas, "expects integer in [1, 16]")) << replicas.Join();

  // Without a "cluster" block, replicas above 1 are refused, in config or in
  // any sweep value, and the message points to the one-machine fleet.
  for (const char* single : {R"({"name":"t","workload":{"family":"requests"},
                                 "config":{"replicas":2}})",
                             R"({"name":"t","workload":{"family":"requests"},
                                 "sweep":{"replicas":[1,3]}})"}) {
    const ScenarioError refused = MustFail(single);
    EXPECT_TRUE(Mentions(refused, "\"replicas\" above 1 needs a \"cluster\" block"))
        << refused.Join();
    EXPECT_TRUE(Mentions(refused, "\"cluster\": {\"machines\": 1}")) << refused.Join();
  }
  MustParse(R"({"name":"t","workload":{"family":"nas"},"config":{"replicas":1}})");

  const ScenarioError headroom = MustFail(R"({
    "name":"t","workload":{"family":"nas"},
    "config":{"power.headroom_fraction":0.0}
  })");
  EXPECT_TRUE(Mentions(headroom, "power.headroom_fraction")) << headroom.Join();

  const ScenarioError unknown = MustFail(R"({
    "name":"t","workload":{"family":"nas"},
    "config":{"fault.core_fail_rate":1.0}
  })");
  EXPECT_TRUE(Mentions(unknown, "unknown config key \"fault.core_fail_rate\"")) << unknown.Join();
  EXPECT_TRUE(Mentions(unknown, "fault.core_fail_rate_per_s")) << unknown.Join();  // known-keys list
}

TEST(ScenarioParseTest, SweepAxesAreValidatedPerValue) {
  const Scenario s = MustParse(R"({
    "name":"t","workload":{"family":"nas"},
    "sweep":{"nest.r_max":[1,3],"smove.low_freq_fraction":[0.1,0.5]}
  })");
  ASSERT_EQ(s.sweep.size(), 2u);
  EXPECT_EQ(s.sweep[0].key, "nest.r_max");
  EXPECT_EQ(s.sweep[0].values.size(), 2u);

  const ScenarioError bad = MustFail(R"({
    "name":"t","workload":{"family":"nas"},
    "sweep":{"nest.r_max":[1,"three"]}
  })");
  EXPECT_TRUE(Mentions(bad, "nest.r_max")) << bad.Join();
}

TEST(ScenarioParseTest, ClusterBlockParses) {
  const Scenario s = MustParse(R"({
    "name":"t","workload":{"family":"requests"},
    "cluster":{"machines":3,"router":"least-loaded"}
  })");
  EXPECT_TRUE(s.has_cluster);
  EXPECT_EQ(s.cluster_machines, 3);
  EXPECT_EQ(s.cluster_router, "least-loaded");
}

TEST(ScenarioParseTest, ClusterDefaultsWhenKeysOmitted) {
  const Scenario s = MustParse(R"({"name":"t","workload":{"family":"requests"},"cluster":{}})");
  EXPECT_TRUE(s.has_cluster);
  EXPECT_EQ(s.cluster_machines, 2);
  EXPECT_EQ(s.cluster_router, "round-robin");
}

TEST(ScenarioParseTest, ClusterUnknownKeyNamesThePath) {
  const ScenarioError err = MustFail(R"({
    "name":"t","workload":{"family":"requests"},
    "cluster":{"machnies":2}
  })");
  EXPECT_TRUE(Mentions(err, "/cluster")) << err.Join();
  EXPECT_TRUE(Mentions(err, "unknown key \"machnies\"")) << err.Join();
  EXPECT_TRUE(Mentions(err, "machines")) << err.Join();  // the known-keys list
}

TEST(ScenarioParseTest, ClusterMachinesOutOfRange) {
  const ScenarioError err = MustFail(R"({
    "name":"t","workload":{"family":"requests"},
    "cluster":{"machines":0}
  })");
  EXPECT_TRUE(Mentions(err, "/cluster")) << err.Join();
  EXPECT_TRUE(Mentions(err, "\"machines\" out of range")) << err.Join();
}

TEST(ScenarioParseTest, ClusterRouterListsTheAlternatives) {
  const ScenarioError err = MustFail(R"({
    "name":"t","workload":{"family":"requests"},
    "cluster":{"router":"random"}
  })");
  EXPECT_TRUE(Mentions(err, "/cluster")) << err.Join();
  EXPECT_TRUE(Mentions(err, "unknown value \"random\"")) << err.Join();
  EXPECT_TRUE(Mentions(err, "round-robin")) << err.Join();
}

TEST(ScenarioParseTest, ClusterRequiresTheRequestsFamily) {
  const ScenarioError err = MustFail(R"({
    "name":"t","workload":{"family":"configure"},
    "cluster":{"machines":2}
  })");
  EXPECT_TRUE(Mentions(err, "requests")) << err.Join();
  EXPECT_TRUE(Mentions(err, "configure")) << err.Join();
}

// The latency table prints fleet request latency, which only a cluster run
// fills; without a "cluster" block every row would print zeros.
TEST(ScenarioParseTest, LatencyTableNeedsACluster) {
  const ScenarioError err = MustFail(R"({
    "name":"t","workload":{"family":"requests"},"table":{"style":"latency"}
  })");
  EXPECT_TRUE(Mentions(err, "test/table: style \"latency\" needs a \"cluster\" block"))
      << err.Join();
  MustParse(R"({"name":"t","workload":{"family":"requests"},"cluster":{"machines":1},
                "table":{"style":"latency"}})");
}

TEST(ScenarioParseTest, ApplyConfigOverrideTouchesTheConfig) {
  ExperimentConfig config;
  ScenarioError err;
  JsonValue v;
  v.type = JsonValue::Type::kNumber;
  v.number = 7;
  EXPECT_TRUE(ApplyConfigOverride(&config, "nest.r_max", v, "p", &err));
  EXPECT_EQ(config.nest.r_max, 7);
  v.number = 2.5;
  EXPECT_TRUE(ApplyConfigOverride(&config, "time_limit_s", v, "p", &err));
  EXPECT_EQ(config.time_limit, SecondsF(2.5));
  JsonValue b;
  b.type = JsonValue::Type::kBool;
  b.boolean = true;
  EXPECT_TRUE(ApplyConfigOverride(&config, "nest.enable_spin", b, "p", &err));
  EXPECT_TRUE(config.nest.enable_spin);
  EXPECT_TRUE(err.ok()) << err.Join();
}

TEST(ScenarioParseTest, ConfigOverrideKeysAreStable) {
  const std::vector<std::string> keys = ConfigOverrideKeys();
  EXPECT_GE(keys.size(), 19u);
  ExperimentConfig config;
  // Every advertised key must actually apply (with a value of the right type).
  for (const std::string& key : keys) {
    ScenarioError err;
    JsonValue num;
    num.type = JsonValue::Type::kNumber;
    num.number = 1;
    JsonValue flag;
    flag.type = JsonValue::Type::kBool;
    flag.boolean = true;
    JsonValue text;
    text.type = JsonValue::Type::kString;
    // A governor name, so the domain-checked "governor" key applies too;
    // the free-form string keys accept it like any other text. The
    // eagerly-loaded model path gets the committed model (resolved like a
    // scenario path, so it is found from the repo root and from build/).
    text.string = key == "predict.model_file" ? "models/tiny-predict.json" : "schedutil";
    const bool applied = ApplyConfigOverride(&config, key, num, "p", &err) ||
                         ApplyConfigOverride(&config, key, flag, "p", &err) ||
                         ApplyConfigOverride(&config, key, text, "p", &err);
    EXPECT_TRUE(applied) << key;
  }
}

TEST(ScenarioParseTest, LoadScenarioReadsAFile) {
  const std::string path = testing::TempDir() + "/scenario_load_test.json";
  {
    std::ofstream out(path, std::ios::trunc);
    out << R"({"name":"from-file","workload":{"family":"nas","presets":["bt"]}})";
  }
  Scenario s;
  ScenarioError err;
  ASSERT_TRUE(LoadScenario(path, &s, &err)) << err.Join();
  EXPECT_EQ(s.name, "from-file");

  ScenarioError missing;
  EXPECT_FALSE(LoadScenario(path + ".nope", &s, &missing));
  EXPECT_TRUE(Mentions(missing, "cannot open"));

  {
    std::ofstream out(path, std::ios::trunc);
    out << "{not json";
  }
  ScenarioError invalid;
  EXPECT_FALSE(LoadScenario(path, &s, &invalid));
  EXPECT_TRUE(Mentions(invalid, "invalid JSON"));
  std::remove(path.c_str());
}

// A file one byte over the input cap is refused before it is parsed, with
// the path and the limit in the message. The file is sparse: it costs no
// disk, and reading stops at the cap.
TEST(ScenarioParseTest, LoadScenarioRefusesAFileOverTheInputCap) {
  const std::string path = testing::TempDir() + "/scenario_too_large.json";
  { std::ofstream out(path, std::ios::trunc); }
  std::filesystem::resize_file(path, kMaxInputFileBytes + 1);
  Scenario s;
  ScenarioError err;
  EXPECT_FALSE(LoadScenario(path, &s, &err));
  EXPECT_TRUE(Mentions(err, path + ": file is larger than the 16 MiB input limit (" +
                                std::to_string(kMaxInputFileBytes) + " bytes)"))
      << err.Join();
  // Exactly at the cap the file is read, and fails as the JSON it is.
  std::filesystem::resize_file(path, kMaxInputFileBytes);
  ScenarioError at_cap;
  EXPECT_FALSE(LoadScenario(path, &s, &at_cap));
  EXPECT_TRUE(Mentions(at_cap, "invalid JSON")) << at_cap.Join();
  std::remove(path.c_str());
}

std::string ModelFileScenario(const std::string& model_path) {
  return R"({"name":"t","workload":{"family":"nas"},"config":{"predict.model_file":")" +
         model_path + R"("}})";
}

TEST(ScenarioParseTest, MissingModelFileIsNamed) {
  const std::string path = testing::TempDir() + "/no-such-model.json";
  const ScenarioError err = MustFail(ModelFileScenario(path));
  EXPECT_TRUE(Mentions(err, "\"predict.model_file\" does not load: " + path +
                                ": cannot open model file"))
      << err.Join();
}

TEST(ScenarioParseTest, MalformedModelFileNamesPathAndParsePosition) {
  const std::string path = testing::TempDir() + "/malformed-model.json";
  {
    std::ofstream out(path, std::ios::trunc);
    out << R"({"model": "nest-predict-table", "version" 1})";
  }
  const ScenarioError err = MustFail(ModelFileScenario(path));
  EXPECT_TRUE(Mentions(err, path + ": invalid JSON: ")) << err.Join();
  EXPECT_TRUE(Mentions(err, "(at byte 42)")) << err.Join();

  // Valid JSON that is not a model names the whole path too.
  {
    std::ofstream out(path, std::ios::trunc);
    out << R"({"model": "other", "version": 1, "buckets": []})";
  }
  const ScenarioError wrong = MustFail(ModelFileScenario(path));
  EXPECT_TRUE(Mentions(wrong, path + ": \"model\" must be \"nest-predict-table\""))
      << wrong.Join();
  std::remove(path.c_str());
}

TEST(ScenarioRegistryTest, NineFamiliesRegistered) {
  EXPECT_EQ(WorkloadFamilies().size(), 9u);
  for (const char* name : {"configure", "dacapo", "nas", "phoronix", "server", "requests",
                           "hackbench", "schbench", "multi"}) {
    EXPECT_NE(FindWorkloadFamily(name), nullptr) << name;
  }
  EXPECT_EQ(FindWorkloadFamily("nope"), nullptr);
}

TEST(ScenarioRegistryTest, BuildersProduceWorkingWorkloads) {
  ScenarioError err;
  for (const WorkloadFamily& family : WorkloadFamilies()) {
    if (family.presets.empty()) {
      continue;
    }
    auto workload = family.build(family.presets.front(), nullptr, "p", err);
    ASSERT_NE(workload, nullptr) << family.name << ": " << err.Join();
    EXPECT_FALSE(workload->name().empty());
  }
  EXPECT_TRUE(err.ok()) << err.Join();
}

TEST(ScenarioRegistryTest, PhoronixSyntheticRowsBuild) {
  ScenarioError err;
  const WorkloadFamily* family = FindWorkloadFamily("phoronix");
  ASSERT_NE(family, nullptr);
  EXPECT_TRUE(family->is_preset("synthetic-100"));
  EXPECT_FALSE(family->is_preset("synthetic-x"));
  auto workload = family->build("synthetic-100", nullptr, "p", err);
  ASSERT_NE(workload, nullptr) << err.Join();
  EXPECT_EQ(workload->name(), "phoronix-synthetic-100");
}

}  // namespace
}  // namespace nestsim
