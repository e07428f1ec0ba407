// Reproduces Figure 6: frequency distributions during the configure
// workloads, per machine and scheduler/governor combination. One run per
// cell, as for the paper's frequency traces.

#include "bench/bench_util.h"
#include "src/workloads/configure.h"

using namespace nestsim;

int main() {
  PrintHeader("Figure 6: Configure frequency distributions",
              "Share of task-execution time per frequency bucket. 'top2' is the "
              "share in the two highest-frequency buckets — Nest should "
              "dominate there.");
  const auto variants = StandardScenarioVariants(false);
  for (const std::string& machine : PaperMachineNames()) {
    const MachineSpec& spec = MachineByName(machine);
    PrintMachineBanner(spec);
    for (const std::string& package : ConfigureWorkload::PackageNames()) {
      std::printf("%s:\n", package.c_str());
      for (const ScenarioVariant& variant : variants) {
        ExperimentConfig config = VariantConfig(machine, variant);
        config.seed = 11;
        ConfigureWorkload workload(package);
        const ExperimentResult r = RunExperiment(config, workload);
        std::printf("  %-11s top2 %5.1f%% |", variant.label.c_str(),
                    100.0 * r.freq_hist.TopShare(2));
        for (size_t b = 0; b < r.freq_hist.seconds.size(); ++b) {
          std::printf(" %5.1f", 100.0 * r.freq_hist.Share(b));
        }
        std::printf("\n");
      }
    }
  }
  return 0;
}
