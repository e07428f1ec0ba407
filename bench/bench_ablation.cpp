// Reproduces the ablation studies of §5.2 ("Impact of Nest features",
// configure) and §5.3 (DaCapo): remove each Nest feature and scale each
// Table 1 parameter by 0.5x / 2x / 10x, reporting the change vs default Nest.
//
// Paper findings to check: the reserve nest matters for configure (~5%
// on the Speed Shift machines, up to 16% on the E7); spinning matters most
// for the DaCapo apps (10-26%); compaction removal lets h2/graphchi spread
// (~5%); most parameter scalings are neutral, long spins (10x) hurt.

#include <functional>

#include "bench/bench_util.h"
#include "src/workloads/configure.h"
#include "src/workloads/dacapo.h"

using namespace nestsim;

namespace {

struct AblationVariant {
  std::string label;
  std::function<void(NestParams&)> mutate;
};

// Decision counters summed over a variant's repetitions; the per-variant
// "why" behind the makespan deltas (e.g. "no reserve" shows as nest misses,
// "no spin" as zero spin conversions).
SchedCounters SumCounters(const RepeatedResult& rr) {
  SchedCounters sum;
  for (const ExperimentResult& r : rr.runs) {
    sum.Add(r.counters);
  }
  return sum;
}

std::vector<AblationVariant> Variants() {
  std::vector<AblationVariant> v;
  v.push_back({"default", [](NestParams&) {}});
  v.push_back({"no reserve", [](NestParams& p) { p.enable_reserve = false; }});
  v.push_back({"no compaction", [](NestParams& p) { p.enable_compaction = false; }});
  v.push_back({"no spin", [](NestParams& p) { p.enable_spin = false; }});
  v.push_back({"no attach", [](NestParams& p) { p.enable_attach = false; }});
  v.push_back({"no impatience", [](NestParams& p) { p.enable_impatience = false; }});
  v.push_back({"no wake WC", [](NestParams& p) { p.enable_wake_work_conservation = false; }});
  v.push_back({"no reservation", [](NestParams& p) { p.enable_placement_reservation = false; }});
  v.push_back({"P_remove x0.5", [](NestParams& p) { p.p_remove_ticks = 1; }});
  v.push_back({"P_remove x2", [](NestParams& p) { p.p_remove_ticks = 4; }});
  v.push_back({"P_remove x10", [](NestParams& p) { p.p_remove_ticks = 20; }});
  v.push_back({"R_max x0.5", [](NestParams& p) { p.r_max = 2; }});
  v.push_back({"R_max x2", [](NestParams& p) { p.r_max = 10; }});
  v.push_back({"R_max x10", [](NestParams& p) { p.r_max = 50; }});
  v.push_back({"R_impat x0.5", [](NestParams& p) { p.r_impatient = 1; }});
  v.push_back({"R_impat x2", [](NestParams& p) { p.r_impatient = 4; }});
  v.push_back({"R_impat x10", [](NestParams& p) { p.r_impatient = 20; }});
  v.push_back({"S_max x0.5", [](NestParams& p) { p.s_max_ticks = 1; }});
  v.push_back({"S_max x2", [](NestParams& p) { p.s_max_ticks = 4; }});
  v.push_back({"S_max x10", [](NestParams& p) { p.s_max_ticks = 20; }});
  return v;
}

void RunStudy(const std::string& machine, const Workload& workload) {
  const int reps = RepetitionsFromEnv(kBenchRepetitions);
  std::printf("\n[%s on %s]\n", workload.name().c_str(), machine.c_str());
  ExperimentConfig config;
  config.machine = machine;
  config.scheduler = SchedulerKind::kNest;
  config.governor = "schedutil";
  const RepeatedResult base = RunRepeated(config, workload, reps);
  std::printf("  %-16s %8.3fs (baseline Nest-schedutil, Table 1 parameters)\n", "default",
              base.mean_seconds);
  std::printf("  %-16s %8s  [%s]\n", "", "", NestSummary(SumCounters(base)).c_str());
  for (const AblationVariant& variant : Variants()) {
    if (variant.label == "default") {
      continue;
    }
    ExperimentConfig c = config;
    variant.mutate(c.nest);
    const RepeatedResult rr = RunRepeated(c, workload, reps);
    std::printf("  %-16s %8.3fs  change vs default: %s\n", variant.label.c_str(),
                rr.mean_seconds,
                FormatSpeedup(SpeedupPercent(base.mean_seconds, rr.mean_seconds)).c_str());
    std::printf("  %-16s %8s  [%s]\n", "", "", NestSummary(SumCounters(rr)).c_str());
  }
}

}  // namespace

int main() {
  PrintHeader("Ablation study (paper §5.2 and §5.3, Table 1 parameters)",
              "Each Nest feature removed / parameter scaled; positive change "
              "means the variant is faster than default Nest.");
  std::printf("\nTable 1 defaults: P_remove=2 ticks, R_max=5, R_impatient=2, S_max=2 ticks\n");

  RunStudy("intel-5218-2s", ConfigureWorkload("llvm_ninja"));
  RunStudy("intel-5218-2s", ConfigureWorkload("mplayer"));
  RunStudy("intel-e78870v4-4s", ConfigureWorkload("llvm_ninja"));
  RunStudy("intel-5218-2s", DacapoWorkload("h2"));
  RunStudy("intel-6130-4s", DacapoWorkload("graphchi-eval"));
  RunStudy("intel-6130-4s", DacapoWorkload("tradebeans"));
  return 0;
}
