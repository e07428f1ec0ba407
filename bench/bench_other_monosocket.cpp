// Reproduces §5.6 "Mono-socket machines": configure, DaCapo, and NAS subsets
// on the single-socket Intel Xeon 5220 and AMD Ryzen 5 PRO 4650G models.
//
// Paper shape: configure speedups persist (AMD especially: 20-80% with
// Nest-schedutil and more with Nest-performance); DaCapo gains shrink (no
// cross-socket dispersal left to fix); NAS is identical to CFS.

#include "bench/bench_util.h"
#include "src/workloads/configure.h"
#include "src/workloads/dacapo.h"
#include "src/workloads/nas.h"

using namespace nestsim;

namespace {

void Row(const std::string& machine, const Workload& workload) {
  const int reps = RepetitionsFromEnv(kBenchRepetitions);
  const auto variants = StandardScenarioVariants(false);
  const RepeatedResult base = RunRepeated(VariantConfig(machine, variants[0]), workload, reps);
  std::printf("  %-22s %9.3fs", workload.name().c_str(), base.mean_seconds);
  for (size_t v = 1; v < variants.size(); ++v) {
    const RepeatedResult rr = RunRepeated(VariantConfig(machine, variants[v]), workload, reps);
    std::printf(" %10s", FormatSpeedup(SpeedupPercent(base.mean_seconds, rr.mean_seconds)).c_str());
  }
  std::printf("\n");
}

}  // namespace

int main() {
  PrintHeader("§5.6: Mono-socket machines",
              "Speedups vs CFS-schedutil on single-socket models.");
  for (const std::string& machine : {std::string("intel-5220-1s"), std::string("amd-4650g-1s")}) {
    PrintMachineBanner(MachineByName(machine));
    std::printf("  %-22s %10s %10s %10s %10s\n", "workload", "CFS sched", "CFS perf",
                "Nest sched", "Nest perf");
    for (const char* pkg : {"llvm_ninja", "mplayer", "gcc", "erlang"}) {
      Row(machine, ConfigureWorkload(pkg));
    }
    for (const char* app : {"h2", "graphchi-eval", "tradebeans", "fop", "xalan"}) {
      Row(machine, DacapoWorkload(app));
    }
    for (const char* kern : {"bt", "lu", "mg"}) {
      Row(machine, NasWorkload(kern));
    }
  }
  return 0;
}
