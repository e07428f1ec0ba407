// Reproduces Figure 7: CPU energy-consumption reduction vs CFS-schedutil for
// the configure workloads. The paper reports savings of up to ~19% with
// Nest, driven mostly by shorter running time.

#include "bench/bench_util.h"
#include "src/workloads/configure.h"

using namespace nestsim;

int main() {
  PrintHeader("Figure 7: Configure CPU energy reduction vs CFS-schedutil",
              "Positive = less energy. Baseline column is CFS-schedutil joules.");
  const int reps = RepetitionsFromEnv(kBenchRepetitions);
  const auto variants = StandardScenarioVariants(false);

  for (const std::string& machine : PaperMachineNames()) {
    PrintMachineBanner(MachineByName(machine));
    std::printf("%-14s %14s %10s %10s %10s\n", "package", "CFS sched (J)", "CFS perf",
                "Nest sched", "Nest perf");
    for (const std::string& package : ConfigureWorkload::PackageNames()) {
      ConfigureWorkload workload(package);
      const RepeatedResult base = RunRepeated(VariantConfig(machine, variants[0]), workload, reps);
      std::printf("%-14s %13.1fJ", package.c_str(), base.mean_energy_j);
      for (size_t v = 1; v < variants.size(); ++v) {
        const RepeatedResult rr = RunRepeated(VariantConfig(machine, variants[v]), workload, reps);
        std::printf(" %10s",
                    FormatSpeedup(SpeedupPercent(base.mean_energy_j, rr.mean_energy_j)).c_str());
      }
      std::printf("\n");
    }
  }
  return 0;
}
