// Every committed fleet golden under the windowed executor: each scenario
// with a multi-machine cluster block runs with 1, 2, 3 and 7 forced helper
// threads and must pass the golden gate's own CheckBaseline, byte for byte,
// as the serial loop does in the ctest golden entries (docs/DOMAINS.md §4).
// Fleets with replicas keep the serial loop; their entries check that the
// injection path alone leaves the golden unchanged. Every golden with a
// scenario file gets an entry, and the entry itself loads the scenario, so
// one that stops loading fails instead of dropping out; a golden of one
// machine is skipped.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <ostream>
#include <string>
#include <vector>

#include "src/scenario/baseline.h"
#include "src/scenario/runner.h"
#include "src/scenario/scenario.h"
#include "src/sim/domain_group.h"

#ifndef NESTSIM_REPO_DIR
#error "NESTSIM_REPO_DIR must be defined by the build"
#endif

namespace nestsim {
namespace {

struct Golden {
  std::string stem;
  std::string scenario_path;
  std::string golden_dir;
};

// Names the parameter in test listings by its stem, so ctest's test names
// are the same in every build.
void PrintTo(const Golden& golden, std::ostream* os) { *os << golden.stem; }

// Committed goldens that have a scenario file.
std::vector<Golden> Goldens() {
  namespace fs = std::filesystem;
  const fs::path repo = NESTSIM_REPO_DIR;
  std::vector<Golden> out;
  for (const auto& [golden_dir, scenario_dir] :
       {std::pair{repo / "baselines", repo / "scenarios"},
        std::pair{repo / "scenarios/corpus/baselines", repo / "scenarios/corpus"}}) {
    for (const fs::directory_entry& entry : fs::directory_iterator(golden_dir)) {
      if (entry.path().extension() != ".jsonl") {
        continue;
      }
      const std::string stem = entry.path().stem().string();
      const fs::path scenario_path = scenario_dir / (stem + ".json");
      if (fs::exists(scenario_path)) {
        out.push_back({stem, scenario_path.string(), golden_dir.string()});
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Golden& a, const Golden& b) { return a.stem < b.stem; });
  return out;
}

class WindowedGoldenTest : public ::testing::TestWithParam<Golden> {};

TEST_P(WindowedGoldenTest, PassesAtEveryForcedWorkerCount) {
  const Golden& golden = GetParam();
  Scenario scenario;
  ScenarioError err;
  ASSERT_TRUE(LoadScenario(golden.scenario_path, &scenario, &err)) << err.Join();
  if (!scenario.has_cluster || scenario.cluster_machines < 2) {
    GTEST_SKIP() << golden.stem << " runs one machine, on the serial loop";
  }
  for (const int workers : {1, 2, 3, 7}) {
    SCOPED_TRACE(golden.stem + " at " + std::to_string(workers) + " workers");
    ScenarioRunOptions options;
    options.campaign.jobs = 1;
    options.campaign.progress = false;
    options.campaign.jsonl_path.clear();
    ScenarioRun run;
    ASSERT_TRUE(ExpandScenario(scenario, options, &run, &err)) << err.Join();
    DomainGroup::SetWorkersForTesting(workers);
    ExecuteScenario(&run);
    DomainGroup::SetWorkersForTesting(-1);
    const BaselineCheck check = CheckBaseline(run, golden.golden_dir);
    std::string problems;
    for (const std::string& problem : check.problems) {
      problems += problem + "\n";
    }
    EXPECT_TRUE(check.ok()) << problems;
  }
}

std::string GoldenName(const ::testing::TestParamInfo<Golden>& info) {
  std::string name = info.param.stem;
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(FleetGoldens, WindowedGoldenTest, ::testing::ValuesIn(Goldens()),
                         GoldenName);

}  // namespace
}  // namespace nestsim
