// Reproduces §5.6 "Server tests" (2-socket Intel 6130): web servers,
// key-value stores, and databases under synthetic client load.
//
// Paper shape: Nest loses on apache-siege as the number of concurrent
// requests grows (concurrency overwhelms the nest); nginx/node/php are
// neutral; leveldb gains ~25% and redis ~7% (few warm threads); rocksdb's
// random-read loses ~5%.

#include "bench/bench_util.h"
#include "src/metrics/export.h"
#include "src/workloads/server.h"

using namespace nestsim;

int main() {
  PrintHeader("§5.6: Server tests (2-socket Intel 6130)",
              "Completion time of a fixed request volume, speedup vs "
              "CFS-schedutil. p99 is the baseline's wakeup tail latency.");
  const int reps = RepetitionsFromEnv(kBenchRepetitions);
  const std::string machine = "intel-6130-2s";
  const std::vector<ScenarioVariant> standard = StandardScenarioVariants(false);

  std::printf("%-18s %16s %10s %10s %8s\n", "test", "CFS sched (s)", "Nest sched", "Nest perf",
              "p99(us)");
  std::vector<ResultRow> rows;
  for (const std::string& test : ServerWorkload::TestNames()) {
    ServerWorkload workload(test);
    ExperimentConfig base = VariantConfig(machine, standard[0]);  // CFS sched
    base.record_latency = true;
    const RepeatedResult base_rr = RunRepeated(base, workload, reps);
    std::printf("%-18s %9.3fs %4.1f%%", test.c_str(), base_rr.mean_seconds, base_rr.stddev_pct());
    rows.push_back({test, "CFS sched", base_rr.runs.front()});
    for (const ScenarioVariant& variant : {standard[2], standard[3]}) {  // Nest sched, Nest perf
      const RepeatedResult rr = RunRepeated(VariantConfig(machine, variant), workload, reps);
      std::printf(" %10s",
                  FormatSpeedup(SpeedupPercent(base_rr.mean_seconds, rr.mean_seconds)).c_str());
      rows.push_back({test, variant.label, rr.runs.front()});
    }
    std::printf(" %8.1f\n", base_rr.runs.front().p99_wakeup_latency_us);
  }

  // Machine-readable copy of the table next to the binary output.
  if (WriteFile("server_results.csv", ResultsToCsv(rows))) {
    std::printf("\n(raw rows written to server_results.csv)\n");
  }
  return 0;
}
