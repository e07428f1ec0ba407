// Reproduces Figure 11: DaCapo frequency distributions per machine and
// scheduler/governor combination (one run per cell).

#include "bench/bench_util.h"
#include "src/workloads/dacapo.h"

using namespace nestsim;

int main() {
  PrintHeader("Figure 11: DaCapo frequency distributions",
              "Share of task-execution time per frequency bucket; 'top2' = two "
              "highest buckets.");
  const auto variants = StandardScenarioVariants(false);
  for (const std::string& machine : PaperMachineNames()) {
    const MachineSpec& spec = MachineByName(machine);
    PrintMachineBanner(spec);
    for (const std::string& app : DacapoWorkload::AppNames()) {
      std::printf("%s:\n", app.c_str());
      for (const ScenarioVariant& variant : variants) {
        ExperimentConfig config = VariantConfig(machine, variant);
        config.seed = 5;
        DacapoWorkload workload(app);
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
