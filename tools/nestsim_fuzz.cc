// nestsim_fuzz: randomized invariant & differential testing (docs/TESTING.md).
//
//   nestsim_fuzz --runs 500                     CI smoke: 500 random scenarios
//   nestsim_fuzz --runs 100 --base-seed 7000    a different slice of seeds
//   nestsim_fuzz --shrink                       minimise failures before writing
//   nestsim_fuzz --gen-corpus 5                 emit scenarios without running
//
// Each run draws one scenario from the seeded generator (src/check/), executes
// it under every scheduler variant twice (1 worker, then a pool) with the
// invariant checker forced on, and cross-checks determinism, task accounting,
// and full-load CFS/Nest neutrality. Failures are written to --repro-dir as
// standard scenario files (fuzz-<seed>.json, plus fuzz-<seed>-min.json when
// --shrink is on) ready to commit under scenarios/corpus/ and replay with
// nestsim_run.
//
// Generated scenarios name the committed model as models/tiny-predict.json,
// which resolves like a scenario path; where it does not (another working
// directory without NESTSIM_SCENARIO_DIR), the tool refuses to start.
//
// Exit codes: 0 all runs clean, 1 at least one failure, 2 usage error or an
// unresolvable model.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "src/check/differential.h"
#include "src/check/generator.h"
#include "src/check/shrink.h"
#include "src/scenario/predict_io.h"
#include "src/scenario/runner.h"
#include "tools/cli_num.h"

using namespace nestsim;

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options]\n"
               "\n"
               "options:\n"
               "  --runs N         scenarios to generate and cross-check (default 100)\n"
               "  --base-seed S    first generator seed (default 1)\n"
               "  --shrink         minimise failing scenarios before writing repros\n"
               "  --repro-dir DIR  where repros go (default: scenarios/corpus)\n"
               "  --jobs N         parallel-pass worker count (default 4; at most half\n"
               "                   the usable CPUs, so each fleet's window threads fit)\n"
               "  --band X         full-load neutrality band (default 0.35)\n"
               "  --gen-corpus N   write N generated scenarios to --repro-dir and exit\n"
               "  --mutate         self-test: inject a lost-wakeup kernel fault into\n"
               "                   every run; the harness MUST fail (exit 1)\n",
               argv0);
  return 2;
}

bool WriteFile(const std::string& dir, const std::string& name, const std::string& text) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/" + name;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "nestsim_fuzz: cannot write %s\n", path.c_str());
    return false;
  }
  out << text;
  std::fprintf(stderr, "nestsim_fuzz: wrote %s\n", path.c_str());
  return true;
}

// Renames the scenario inside a shrunk spec so the repro file and its
// baseline name do not collide with the unshrunk one.
void RenameSpec(JsonValue* spec, const std::string& name) {
  for (auto& [key, value] : spec->members) {
    if (key == "name") {
      value.string = name;
      return;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  long runs = 100;
  uint64_t base_seed = 1;
  bool shrink = false;
  std::string repro_dir = "scenarios/corpus";
  long gen_corpus = 0;
  DifferentialOptions diff;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--runs") {
      const char* v = next();
      if (v == nullptr || !ParseCliInt(v, 1, LONG_MAX, &runs)) {
        std::fprintf(stderr, "nestsim_fuzz: --runs needs a positive integer, got '%s'\n",
                     v == nullptr ? "" : v);
        return Usage(argv[0]);
      }
    } else if (arg == "--base-seed") {
      const char* v = next();
      if (v == nullptr) {
        return Usage(argv[0]);
      }
      base_seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--shrink") {
      shrink = true;
    } else if (arg == "--repro-dir") {
      const char* v = next();
      if (v == nullptr) {
        return Usage(argv[0]);
      }
      repro_dir = v;
    } else if (arg == "--jobs") {
      const char* v = next();
      if (v == nullptr || !ParseCliPositiveInt(v, &diff.parallel_jobs)) {
        std::fprintf(stderr, "nestsim_fuzz: --jobs needs a positive integer, got '%s'\n",
                     v == nullptr ? "" : v);
        return Usage(argv[0]);
      }
    } else if (arg == "--band") {
      const char* v = next();
      if (v == nullptr || !ParseCliPositiveDouble(v, &diff.neutrality_band)) {
        std::fprintf(stderr, "nestsim_fuzz: --band needs a positive number, got '%s'\n",
                     v == nullptr ? "" : v);
        return Usage(argv[0]);
      }
    } else if (arg == "--mutate") {
      // The deliberately broken kernel from the mutation self-test: every
      // 50th enqueue loses its wakeup and the balancers are off, so nothing
      // rescues the stuck queue. The invariant checker has to catch this.
      diff.mutate_config = [](ExperimentConfig* config) {
        config->kernel.enable_newidle_balance = false;
        config->kernel.enable_periodic_balance = false;
        config->kernel.test_skip_enqueue_dispatch_every = 50;
      };
    } else if (arg == "--gen-corpus") {
      const char* v = next();
      if (v == nullptr || !ParseCliInt(v, 1, LONG_MAX, &gen_corpus)) {
        std::fprintf(stderr, "nestsim_fuzz: --gen-corpus needs a positive integer, got '%s'\n",
                     v == nullptr ? "" : v);
        return Usage(argv[0]);
      }
    } else {
      std::fprintf(stderr, "nestsim_fuzz: unknown option %s\n", arg.c_str());
      return Usage(argv[0]);
    }
  }

  if (gen_corpus > 0) {
    for (long i = 0; i < gen_corpus; ++i) {
      const GeneratedScenario gen = GenerateScenario(base_seed + static_cast<uint64_t>(i));
      if (!WriteFile(repro_dir, "fuzz-" + std::to_string(gen.seed) + ".json", gen.json)) {
        return 1;
      }
    }
    return 0;
  }

  // Every seed that draws nest_predict loads the committed model; where it
  // does not resolve, those seeds would fail falsely and leave repros.
  TableModel model;
  ScenarioError model_err;
  if (!LoadTableModelFile(ResolveScenarioPath(kGeneratedModelFile), &model, &model_err)) {
    const char* dir = std::getenv("NESTSIM_SCENARIO_DIR");
    std::fprintf(stderr,
                 "nestsim_fuzz: generated scenarios load predict.model_file \"%s\", which "
                 "does not resolve from this directory with NESTSIM_SCENARIO_DIR=%s:\n%s\n"
                 "nestsim_fuzz: run from the repository root or build/, or set "
                 "NESTSIM_SCENARIO_DIR to the repository's scenarios/ directory\n",
                 kGeneratedModelFile, dir != nullptr ? dir : "(unset)",
                 model_err.Join().c_str());
    return 2;
  }

  long failures = 0;
  for (long i = 0; i < runs; ++i) {
    const uint64_t seed = base_seed + static_cast<uint64_t>(i);
    const GeneratedScenario gen = GenerateScenario(seed);
    const DifferentialReport report = RunDifferential(gen, diff);
    if ((i + 1) % 50 == 0 || i + 1 == runs) {
      std::fprintf(stderr, "nestsim_fuzz: %ld/%ld scenarios, %ld failure(s)\n", i + 1, runs,
                   failures);
    }
    if (report.ok()) {
      continue;
    }
    ++failures;
    std::fprintf(stderr, "nestsim_fuzz: seed %llu FAILED (%zu jobs):\n%s\n",
                 static_cast<unsigned long long>(seed), report.jobs, report.Join().c_str());
    WriteFile(repro_dir, "fuzz-" + std::to_string(seed) + ".json", gen.json);
    if (shrink) {
      ShrinkOptions shrink_options;
      shrink_options.diff = diff;
      ShrinkOutcome min = ShrinkScenario(gen.spec, gen.full_load, shrink_options);
      RenameSpec(&min.spec, "fuzz-" + std::to_string(seed) + "-min");
      min.json = JsonSerialize(min.spec, 2) + "\n";
      std::fprintf(stderr, "nestsim_fuzz: shrunk seed %llu in %d attempts (%d reductions)\n",
                   static_cast<unsigned long long>(seed), min.attempts, min.accepted);
      WriteFile(repro_dir, "fuzz-" + std::to_string(seed) + "-min.json", min.json);
    }
  }

  if (failures > 0) {
    std::fprintf(stderr, "nestsim_fuzz: %ld of %ld scenarios failed\n", failures, runs);
    return 1;
  }
  std::fprintf(stderr, "nestsim_fuzz: all %ld scenarios clean\n", runs);
  return 0;
}
