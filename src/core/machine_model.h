// One machine's simulation stack, the unit both experiment drivers run.
//
// A MachineModel owns a machine's HardwareModel, scheduler policy, governor
// and Kernel, built on one engine in that order, plus the per-machine
// observer set: task completion, underload, frequency residency and
// scheduler counters on every run, and whichever of the exec-segment trace,
// Perfetto writer, wakeup-latency tracker, invariant checker, resilience
// recorder and prediction recorders the config asks for.
//
// RunExperiment runs one MachineModel on a one-domain DomainGroup;
// RunClusterExperiment (src/cluster/) runs one per domain and adds only what
// is fleet-specific: routing, request tracking, replica quorums, machine
// crashes and serving metrics. Both pump and harvest through RunMachines.

#ifndef NESTSIM_SRC_CORE_MACHINE_MODEL_H_
#define NESTSIM_SRC_CORE_MACHINE_MODEL_H_

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/hw/hardware.h"
#include "src/kernel/kernel.h"
#include "src/metrics/freq_hist.h"
#include "src/metrics/underload.h"
#include "src/obs/sched_counters.h"
#include "src/sim/engine.h"
#include "src/sim/parallel.h"

namespace nestsim {

class InvariantChecker;
class PerfettoTraceWriter;
class WakeupLatencyTracker;

class MachineModel {
 public:
  // Builds config.machine's stack on `engine` and attaches the observers.
  // The kernel is not started, so a driver can attach its own observers
  // first. `fleet_index` is the machine's place in a fleet run, or -1 in a
  // single-machine run; a fleet machine offsets its CPU ids by
  // fleet_index × CPUs and suffixes its Perfetto file with "-m<index>".
  MachineModel(Engine* engine, const ExperimentConfig& config, int fleet_index = -1);
  ~MachineModel();

  HardwareModel hw;
  std::unique_ptr<SchedulerPolicy> policy;
  std::unique_ptr<Governor> governor;
  Kernel kernel;

  int fleet_index() const { return fleet_index_; }
  SimTime last_exit() const { return completion_.last_exit(); }
  double UnderloadPerSecond(SimTime end) const { return underload_.UnderloadPerSecond(end); }
  // CPU-seconds spent running tasks up to `end`.
  double BusySeconds(SimTime end) { return freq_.Snapshot(end).TotalSeconds(); }
  // Empty unless config.record_latency.
  const std::vector<double>& wakeup_latencies_us() const;
  // Empty while the invariant checker (if attached) has seen no violation.
  std::string InvariantReport() const;

  // Adds this machine's metrics up to `end` into `result`: energy, counts,
  // scheduler counters, resilience and Smove moves are summed, frequency
  // residency is summed per bucket, tag makespans take the latest exit, CPU
  // ids and exec segments are appended (offset per fleet machine), and the
  // underload series is the first machine's. Writes the Perfetto file, and
  // the first one written becomes result->trace_file. Underload per second
  // and wakeup-latency percentiles are RunMachines', over every machine.
  void AddMetricsTo(SimTime end, ExperimentResult* result);

 private:
  // Per-tag and overall last task exit.
  class CompletionObserver : public KernelObserver {
   public:
    uint32_t InterestMask() const override { return kObsTaskExit; }

    void OnTaskExit(SimTime now, const Task& task) override {
      last_exit_ = std::max(last_exit_, now);
      auto [it, inserted] = tag_last_exit_.try_emplace(task.tag, now);
      if (!inserted) {
        it->second = std::max(it->second, now);
      }
    }

    SimTime last_exit() const { return last_exit_; }
    const std::map<int, SimTime>& tag_last_exit() const { return tag_last_exit_; }

   private:
    SimTime last_exit_ = 0;
    std::map<int, SimTime> tag_last_exit_;
  };

  const int fleet_index_;
  std::string perfetto_path_;  // empty when Perfetto capture is off
  CompletionObserver completion_;
  UnderloadTracker underload_;
  FreqResidencyTracker freq_;
  SchedCounterRecorder counters_;
  std::unique_ptr<TraceRecorder> trace_;
  std::unique_ptr<PerfettoTraceWriter> perfetto_;
  std::unique_ptr<WakeupLatencyTracker> latency_;
  std::unique_ptr<InvariantChecker> checker_;
  std::unique_ptr<ResilienceRecorder> resilience_;
  std::unique_ptr<OracleRecorder> oracle_recorder_;
  std::unique_ptr<DecisionTraceRecorder> decisions_;
};

// Pumps `group`, whose domain i carries machines[i], until `live` returns
// false or config's time limit, abort hook or invariant checker stops it.
// Throws std::runtime_error with the first machine's report on an invariant
// violation; otherwise returns every machine's metrics added into one
// result. `lockstep` forces the merged executor, which same-instant
// cross-domain feedback needs.
ExperimentResult RunMachines(const ExperimentConfig& config, DomainGroup* group,
                             const std::vector<std::unique_ptr<MachineModel>>& machines,
                             std::function<bool()> live, bool lockstep = false);

}  // namespace nestsim

#endif  // NESTSIM_SRC_CORE_MACHINE_MODEL_H_
