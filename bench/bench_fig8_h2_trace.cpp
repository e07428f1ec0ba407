// Reproduces Figures 8/9: the h2 case study on the 4-socket Intel 6130.
//
// Paper: CFS-schedutil disperses h2's ~10 threads over most of a socket
// (sometimes several sockets — the "slow run" of Figure 9), leaving cores in
// low turbo; Nest concentrates them on ~10 cores at high turbo, and never
// splits them across sockets.

#include <set>

#include "bench/bench_util.h"
#include "src/workloads/dacapo.h"

using namespace nestsim;

namespace {

void RunCase(const char* label, SchedulerKind scheduler, uint64_t seed) {
  ExperimentConfig config;
  config.machine = "intel-6130-4s";
  config.scheduler = scheduler;
  config.governor = "schedutil";
  config.seed = seed;
  config.trace_label = std::string("fig8-h2-") + (scheduler == SchedulerKind::kCfs ? "cfs" : "nest");
  DacapoWorkload workload("h2");
  const ExperimentResult r = RunExperiment(config, workload);
  const MachineSpec& spec = MachineByName(config.machine);
  const Topology topo(spec.num_sockets, spec.physical_cores_per_socket, spec.threads_per_core);

  std::set<int> sockets;
  for (int cpu : r.cpus_used) {
    sockets.insert(topo.SocketOf(cpu));
  }
  std::printf("\n(%s, seed %llu) time %.3fs  cores used %zu  sockets touched %zu\n", label,
              static_cast<unsigned long long>(seed), r.seconds(), r.cpus_used.size(),
              sockets.size());
  std::printf("%s", r.freq_hist.Format(spec).c_str());
  if (!r.trace_file.empty()) {
    std::printf("perfetto trace: %s\n", r.trace_file.c_str());
  }
}

}  // namespace

int main() {
  PrintHeader("Figures 8/9: h2 case study (4-socket Intel 6130, schedutil)",
              "CFS spreads h2 widely at lower turbo; Nest concentrates it on few "
              "cores of one socket at high turbo. Several seeds show CFS's "
              "run-to-run dispersal variance (Figure 9's slow run).");
  const int reps = RepetitionsFromEnv(kBenchRepetitions);  // NESTSIM_REPS controls the seed count
  for (int i = 0; i < reps; ++i) {
    RunCase("CFS-schedutil", SchedulerKind::kCfs, 1 + static_cast<uint64_t>(i));
  }
  for (int i = 0; i < reps; ++i) {
    RunCase("Nest-schedutil", SchedulerKind::kNest, 1 + static_cast<uint64_t>(i));
  }
  return 0;
}
