// Seeded random scenario generator for the correctness harness (src/check/).
//
// GenerateScenario(seed) draws one valid scenario spec — machine, variant
// set, workload family with in-range parameters, config overrides, optional
// sweep axis — from the same registries the scenario engine validates
// against. The result is a standard scenario file (docs/SCENARIOS.md): it
// always parses with ParseScenario and can be written verbatim into
// scenarios/ as a repro. The differential runner (src/check/differential.h)
// executes generated scenarios under every variant and cross-checks them;
// tools/nestsim_fuzz drives the loop.

#ifndef NESTSIM_SRC_CHECK_GENERATOR_H_
#define NESTSIM_SRC_CHECK_GENERATOR_H_

#include <cstdint>
#include <string>

#include "src/obs/json_check.h"

namespace nestsim {

// The committed model every generated nest_predict draw names in
// predict.model_file. It is relative, so it resolves like a scenario path
// (ResolveScenarioPath): from the repository root, from build/, or through
// NESTSIM_SCENARIO_DIR.
inline constexpr char kGeneratedModelFile[] = "models/tiny-predict.json";

struct GeneratedScenario {
  uint64_t seed = 0;
  JsonValue spec;    // scenario object named "fuzz-<seed>"; ParseScenario-valid
  std::string json;  // pretty-printed spec, the standard scenario-file form

  // True when every variant saturates the machine for the whole run (a NAS
  // row with one pinned-width worker per CPU): under full load the paper
  // expects CFS and Nest to be performance-neutral, so the differential
  // runner additionally applies its neutrality band.
  bool full_load = false;
};

// Deterministic: the same seed always yields the same scenario.
GeneratedScenario GenerateScenario(uint64_t seed);

}  // namespace nestsim

#endif  // NESTSIM_SRC_CHECK_GENERATOR_H_
