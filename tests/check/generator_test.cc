#include "src/check/generator.h"

#include <gtest/gtest.h>

#include <set>

#include "src/scenario/scenario.h"

namespace nestsim {
namespace {

TEST(GeneratorTest, EverySeedYieldsAValidScenario) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    const GeneratedScenario gen = GenerateScenario(seed);
    Scenario scenario;
    ScenarioError err;
    ASSERT_TRUE(ParseScenario(gen.spec, "gen", &scenario, &err))
        << "seed " << seed << ":\n" << err.Join() << "\n" << gen.json;
    EXPECT_EQ(scenario.name, "fuzz-" + std::to_string(seed));
    EXPECT_EQ(scenario.machines.size(), 1u);
    EXPECT_GE(scenario.variants.size(), 2u);
    EXPECT_EQ(scenario.repetitions, 1);
    EXPECT_TRUE(scenario.has_config);
  }
}

TEST(GeneratorTest, DeterministicPerSeedAndDiverseAcrossSeeds) {
  std::set<std::string> distinct;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    const GeneratedScenario a = GenerateScenario(seed);
    const GeneratedScenario b = GenerateScenario(seed);
    EXPECT_EQ(a.json, b.json) << "seed " << seed;
    EXPECT_EQ(a.full_load, b.full_load);
    distinct.insert(a.json);
  }
  EXPECT_EQ(distinct.size(), 50u) << "seeds should not collide";
}

// The serialized form is a standard scenario file: it re-parses to the same
// tree (spot-checked through a second serialization).
TEST(GeneratorTest, JsonRoundTrips) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    const GeneratedScenario gen = GenerateScenario(seed);
    JsonValue reparsed;
    std::string error;
    ASSERT_TRUE(JsonParse(gen.json, &reparsed, &error)) << "seed " << seed << ": " << error;
    EXPECT_EQ(JsonSerialize(reparsed, 2) + "\n", gen.json) << "seed " << seed;
  }
}

TEST(GeneratorTest, FullLoadFlagMarksSaturatingNasRows) {
  bool saw_full_load = false;
  bool saw_partial = false;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const GeneratedScenario gen = GenerateScenario(seed);
    if (gen.full_load) {
      saw_full_load = true;
      const JsonValue* workload = gen.spec.Find("workload");
      ASSERT_NE(workload, nullptr);
      EXPECT_EQ(workload->Find("family")->string, "nas");
      EXPECT_EQ(workload->Find("params")->Find("threads")->number, 0);
    } else {
      saw_partial = true;
    }
  }
  EXPECT_TRUE(saw_full_load);
  EXPECT_TRUE(saw_partial);
}

TEST(GeneratorTest, ClusterDrawsForceRequestsTrafficAndStaySmall) {
  int clusters = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const GeneratedScenario gen = GenerateScenario(seed);
    const JsonValue* cluster = gen.spec.Find("cluster");
    if (cluster == nullptr) {
      continue;
    }
    ++clusters;
    // Mostly 1-4 machines; an occasional rack-sized draw (up to 8) keeps the
    // cross-machine paths fuzzed without blowing the runtime budget.
    const double machines = cluster->Find("machines")->number;
    EXPECT_GE(machines, 1) << "seed " << seed;
    EXPECT_LE(machines, 8) << "seed " << seed;
    const std::string router = cluster->Find("router")->string;
    EXPECT_TRUE(router == "passthrough" || router == "round-robin" ||
                router == "least-loaded" || router == "power-aware")
        << "seed " << seed << ": " << router;
    // The fleet only serves the open-loop family, and a cluster run never
    // claims full load (the neutrality band is calibrated for NAS rows).
    EXPECT_EQ(gen.spec.Find("workload")->Find("family")->string, "requests")
        << "seed " << seed;
    EXPECT_FALSE(gen.full_load) << "seed " << seed;
  }
  // ~25% draw rate over 200 seeds; wide band so the test pins the feature,
  // not the exact Rng stream.
  EXPECT_GT(clusters, 20);
  EXPECT_LT(clusters, 100);
}

TEST(GeneratorTest, PredictionVariantsAreDrawnWithTheirConstraints) {
  int predicts = 0;
  int oracles = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    const GeneratedScenario gen = GenerateScenario(seed);
    bool has_predict = false;
    bool has_oracle = false;
    for (const JsonValue& v : gen.spec.Find("variants")->items) {
      const std::string& scheduler = v.Find("scheduler")->string;
      has_predict = has_predict || scheduler == "nest_predict";
      has_oracle = has_oracle || scheduler == "nest_oracle";
    }
    if (has_predict) {
      ++predicts;
      // The predictor always loads the committed tiny model, so the biased
      // first step actually fires under fuzzing.
      const JsonValue* model = gen.spec.Find("config")->Find("predict.model_file");
      ASSERT_NE(model, nullptr) << "seed " << seed;
      EXPECT_EQ(model->string, "models/tiny-predict.json") << "seed " << seed;
    }
    if (has_oracle) {
      ++oracles;
      // The parser rejects nest_oracle under cluster; the generator must
      // never pair them.
      EXPECT_EQ(gen.spec.Find("cluster"), nullptr) << "seed " << seed;
    }
  }
  // ~15% each over 300 seeds (the oracle thinned by the cluster gate); wide
  // bands so the test pins the feature, not the exact Rng stream.
  EXPECT_GT(predicts, 15);
  EXPECT_LT(predicts, 120);
  EXPECT_GT(oracles, 10);
  EXPECT_LT(oracles, 100);
}

}  // namespace
}  // namespace nestsim
