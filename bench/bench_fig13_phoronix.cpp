// Reproduces Figure 13: the highlighted Phoronix multicore tests — those
// where CFS-performance or Nest-schedutil moved the needle by >=20% somewhere
// in the paper. Values are speedups vs CFS-schedutil.

#include "bench/bench_util.h"
#include "src/workloads/phoronix.h"

using namespace nestsim;

int main() {
  PrintHeader("Figure 13: Phoronix multicore highlight tests",
              "Speedup vs CFS-schedutil for CFS-performance and Nest-schedutil "
              "(the paper's two headline columns).");
  const int reps = RepetitionsFromEnv(kBenchRepetitions);
  // CFS sched as the baseline; CFS perf and Nest sched as the columns.
  const std::vector<ScenarioVariant> standard = StandardScenarioVariants(false);
  const ScenarioVariant& base_variant = standard[0];
  const std::vector<ScenarioVariant> variants = {standard[1], standard[2]};

  for (const std::string& machine : PaperMachineNames()) {
    PrintMachineBanner(MachineByName(machine));
    std::printf("%-22s %16s %10s %10s\n", "test", "CFS sched (s)", "CFS perf", "Nest sched");
    for (const std::string& test : PhoronixWorkload::Figure13TestNames()) {
      PhoronixWorkload workload(test);
      const RepeatedResult base = RunRepeated(VariantConfig(machine, base_variant), workload, reps);
      std::printf("%-22s %9.2fs %4.1f%%", test.c_str(), base.mean_seconds, base.stddev_pct());
      for (const ScenarioVariant& variant : variants) {
        const RepeatedResult rr = RunRepeated(VariantConfig(machine, variant), workload, reps);
        std::printf(" %10s",
                    FormatSpeedup(SpeedupPercent(base.mean_seconds, rr.mean_seconds)).c_str());
      }
      std::printf("\n");
    }
  }
  return 0;
}
