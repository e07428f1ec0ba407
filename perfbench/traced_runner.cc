#include "perfbench/traced_runner.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/governors/governors.h"
#include "src/hw/hardware.h"
#include "src/hw/machine_spec.h"
#include "src/kernel/kernel.h"
#include "src/metrics/freq_hist.h"
#include "src/metrics/underload.h"
#include "src/obs/sched_counters.h"
#include "src/sim/engine.h"
#include "src/sim/random.h"

namespace perfbench {

namespace {

using nestsim::ExperimentConfig;
using nestsim::ExperimentResult;
using nestsim::Kernel;
using nestsim::KernelObserver;
using nestsim::MachineSpec;
using nestsim::SimTime;
using nestsim::Task;

class TracedPolicy final : public nestsim::SchedulerPolicy {
 public:
  TracedPolicy(std::unique_ptr<nestsim::SchedulerPolicy> inner, CallTimer* timer,
               CallStats* fork, CallStats* wake, CallStats* hooks)
      : inner_(std::move(inner)), timer_(timer), fork_(fork), wake_(wake), hooks_(hooks) {}

  void Attach(Kernel* kernel) override {
    kernel_ = kernel;
    inner_->Attach(kernel);
  }
  const char* name() const override { return inner_->name(); }

  int SelectCpuFork(Task& child, int parent_cpu) override {
    CallTimer::Scope scope(*timer_, *fork_);
    return inner_->SelectCpuFork(child, parent_cpu);
  }
  int SelectCpuWake(Task& task, const nestsim::WakeContext& ctx) override {
    CallTimer::Scope scope(*timer_, *wake_);
    return inner_->SelectCpuWake(task, ctx);
  }

  void OnTaskEnqueued(Task& task, int cpu) override {
    CallTimer::Scope scope(*timer_, *hooks_);
    inner_->OnTaskEnqueued(task, cpu);
  }
  void OnTaskExit(Task& task, int cpu) override {
    CallTimer::Scope scope(*timer_, *hooks_);
    inner_->OnTaskExit(task, cpu);
  }
  int IdleSpinTicks(int cpu) override {
    CallTimer::Scope scope(*timer_, *hooks_);
    return inner_->IdleSpinTicks(cpu);
  }
  void OnTick() override {
    CallTimer::Scope scope(*timer_, *hooks_);
    inner_->OnTick();
  }
  void OnCpuOffline(int cpu) override {
    CallTimer::Scope scope(*timer_, *hooks_);
    inner_->OnCpuOffline(cpu);
  }
  void OnCpuOnline(int cpu) override {
    CallTimer::Scope scope(*timer_, *hooks_);
    inner_->OnCpuOnline(cpu);
  }
  bool UsesPlacementReservation() const override {
    CallTimer::Scope scope(*timer_, *hooks_);
    return inner_->UsesPlacementReservation();
  }

  // Read once while the kernel is built, or by exporters; not timed.
  bool WantsCacheWarmth() const override { return inner_->WantsCacheWarmth(); }
  int NestMembership(int cpu) const override { return inner_->NestMembership(cpu); }

 private:
  std::unique_ptr<nestsim::SchedulerPolicy> inner_;
  CallTimer* timer_;
  CallStats* fork_;
  CallStats* wake_;
  CallStats* hooks_;
};

class TracedGovernor final : public nestsim::Governor {
 public:
  TracedGovernor(std::unique_ptr<nestsim::Governor> inner, CallTimer* timer, CallStats* requests)
      : inner_(std::move(inner)), timer_(timer), requests_(requests) {}

  const char* name() const override { return inner_->name(); }

  double RequestGhz(const MachineSpec& spec, double cpu_util) const override {
    CallTimer::Scope scope(*timer_, *requests_);
    return inner_->RequestGhz(spec, cpu_util);
  }
  double RequestGhzOn(const MachineSpec& spec, double cpu_util, int cpu) const override {
    CallTimer::Scope scope(*timer_, *requests_);
    return inner_->RequestGhzOn(spec, cpu_util, cpu);
  }

  // Budget plumbing: uncapped governors answer these from constants.
  void AttachHardware(const nestsim::HardwareModel* hw) override { inner_->AttachHardware(hw); }
  double BudgetWatts() const override { return inner_->BudgetWatts(); }
  bool ThrottledOnSocket(int socket) const override { return inner_->ThrottledOnSocket(socket); }
  double CapGhzOn(const MachineSpec& spec, int cpu) const override {
    return inner_->CapGhzOn(spec, cpu);
  }

 private:
  std::unique_ptr<nestsim::Governor> inner_;
  CallTimer* timer_;
  CallStats* requests_;
};

class TracedObserver final : public KernelObserver {
 public:
  TracedObserver(KernelObserver* inner, CallTimer* timer, CallStats* callbacks)
      : inner_(inner), timer_(timer), callbacks_(callbacks) {}

  uint32_t InterestMask() const override { return inner_->InterestMask(); }

  void OnTaskCreated(SimTime now, const Task& task) override {
    CallTimer::Scope scope(*timer_, *callbacks_);
    inner_->OnTaskCreated(now, task);
  }
  void OnTaskEnqueued(SimTime now, const Task& task, int cpu) override {
    CallTimer::Scope scope(*timer_, *callbacks_);
    inner_->OnTaskEnqueued(now, task, cpu);
  }
  void OnContextSwitch(SimTime now, int cpu, const Task* prev, const Task* next) override {
    CallTimer::Scope scope(*timer_, *callbacks_);
    inner_->OnContextSwitch(now, cpu, prev, next);
  }
  void OnCpuSpeedChange(SimTime now, int cpu) override {
    CallTimer::Scope scope(*timer_, *callbacks_);
    inner_->OnCpuSpeedChange(now, cpu);
  }
  void OnTaskBlocked(SimTime now, const Task& task, int cpu) override {
    CallTimer::Scope scope(*timer_, *callbacks_);
    inner_->OnTaskBlocked(now, task, cpu);
  }
  void OnTaskExit(SimTime now, const Task& task) override {
    CallTimer::Scope scope(*timer_, *callbacks_);
    inner_->OnTaskExit(now, task);
  }
  void OnTick(SimTime now) override {
    CallTimer::Scope scope(*timer_, *callbacks_);
    inner_->OnTick(now);
  }
  void OnTaskPlaced(SimTime now, const Task& task, int cpu, bool is_fork) override {
    CallTimer::Scope scope(*timer_, *callbacks_);
    inner_->OnTaskPlaced(now, task, cpu, is_fork);
  }
  void OnReservationCollision(SimTime now, const Task& task, int cpu) override {
    CallTimer::Scope scope(*timer_, *callbacks_);
    inner_->OnReservationCollision(now, task, cpu);
  }
  void OnTaskMigrated(SimTime now, const Task& task, int from_cpu, int to_cpu,
                      nestsim::MigrationReason reason) override {
    CallTimer::Scope scope(*timer_, *callbacks_);
    inner_->OnTaskMigrated(now, task, from_cpu, to_cpu, reason);
  }
  void OnNestEvent(SimTime now, nestsim::NestEventKind kind, int cpu) override {
    CallTimer::Scope scope(*timer_, *callbacks_);
    inner_->OnNestEvent(now, kind, cpu);
  }
  void OnIdleSpinStart(SimTime now, int cpu, int max_ticks) override {
    CallTimer::Scope scope(*timer_, *callbacks_);
    inner_->OnIdleSpinStart(now, cpu, max_ticks);
  }
  void OnIdleSpinEnd(SimTime now, int cpu, bool became_busy) override {
    CallTimer::Scope scope(*timer_, *callbacks_);
    inner_->OnIdleSpinEnd(now, cpu, became_busy);
  }
  void OnCoreFreqChange(SimTime now, int phys_core, double freq_ghz) override {
    CallTimer::Scope scope(*timer_, *callbacks_);
    inner_->OnCoreFreqChange(now, phys_core, freq_ghz);
  }
  void OnCacheEvent(SimTime now, const Task& task, nestsim::CacheEventKind kind, int cpu,
                    double warmth) override {
    CallTimer::Scope scope(*timer_, *callbacks_);
    inner_->OnCacheEvent(now, task, kind, cpu, warmth);
  }
  void OnFaultEvent(SimTime now, nestsim::FaultEventKind kind, int cpu,
                    const Task* task) override {
    CallTimer::Scope scope(*timer_, *callbacks_);
    inner_->OnFaultEvent(now, kind, cpu, task);
  }
  void OnBudgetState(SimTime now, int socket, double headroom_w, bool throttled) override {
    CallTimer::Scope scope(*timer_, *callbacks_);
    inner_->OnBudgetState(now, socket, headroom_w, throttled);
  }

 private:
  KernelObserver* inner_;
  CallTimer* timer_;
  CallStats* callbacks_;
};

// RunExperiment's per-tag completion observer, which the library keeps
// private to experiment.cc.
class CompletionObserver : public KernelObserver {
 public:
  uint32_t InterestMask() const override { return nestsim::kObsTaskExit; }

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

// The RunExperiment branches this runner does not rebuild.
void RejectUnsupported(const ExperimentConfig& config) {
  std::string what;
  if (config.scheduler != nestsim::SchedulerKind::kCfs &&
      config.scheduler != nestsim::SchedulerKind::kNest) {
    what = std::string("scheduler ") + nestsim::SchedulerKindKey(config.scheduler);
  } else if (config.fault.any()) {
    what = "fault injection or replication";
  } else if (config.record_trace || config.record_latency || !config.trace_dir.empty() ||
             std::getenv("NESTSIM_TRACE") != nullptr) {
    what = "trace or latency capture";
  } else if (config.predict.decision_trace != nullptr ||
             config.predict.oracle_record_plan != nullptr) {
    what = "prediction recorders";
  } else if (nestsim::CheckInvariantsEnabled(config)) {
    what = "the invariant checker";
  }
  if (!what.empty()) {
    throw std::runtime_error("traced runner does not rebuild " + what);
  }
}

}  // namespace

ExperimentResult TracedRunExperiment(const ExperimentConfig& config,
                                     const nestsim::Workload& workload, RunTrace* trace) {
  RejectUnsupported(config);
  const bool nest = config.scheduler == nestsim::SchedulerKind::kNest;
  CallTimer timer;

  trace->start_ns = NowNs();
  nestsim::Engine engine;
  const MachineSpec& spec = nestsim::MachineByName(config.machine);
  nestsim::HardwareModel hw(&engine, spec);
  TracedPolicy policy(nestsim::MakeSchedulerPolicy(config), &timer,
                      nest ? &trace->nest_fork : &trace->cfs_fork,
                      nest ? &trace->nest_wake : &trace->cfs_wake, &trace->policy_hooks);
  TracedGovernor governor(nestsim::MakeGovernor(config.governor, config.power), &timer,
                          &trace->governor_requests);
  Kernel kernel(&engine, &hw, &policy, &governor, config.kernel);

  CompletionObserver completion;
  nestsim::UnderloadTracker underload(&kernel, config.record_underload_series);
  nestsim::FreqResidencyTracker freq(&kernel, nestsim::FreqBucketEdgesFor(spec));
  nestsim::SchedCounterRecorder counters(&kernel);
  std::vector<std::unique_ptr<TracedObserver>> observers;
  for (KernelObserver* inner : std::vector<KernelObserver*>{&completion, &underload, &freq,
                                                            &counters}) {
    observers.push_back(
        std::make_unique<TracedObserver>(inner, &timer, &trace->observer_callbacks));
    kernel.AddObserver(observers.back().get());
  }
  kernel.Start();
  trace->stack_built_ns = NowNs();

  nestsim::Rng rng(config.seed);
  workload.Setup(kernel, rng);
  trace->setup_done_ns = NowNs();

  ExperimentResult result;
  const int64_t children_before = timer.outermost_ns();
  const uint64_t events_before = engine.events_fired();
  constexpr int kAbortCheckStride = 2048;
  int until_abort_check = kAbortCheckStride;
  while ((kernel.live_tasks() > 0 || kernel.pending_injections() > 0) &&
         engine.Now() < config.time_limit) {
    if (--until_abort_check <= 0) {
      until_abort_check = kAbortCheckStride;
      if (config.should_abort && config.should_abort()) {
        result.aborted = true;
        break;
      }
    }
    if (!engine.Step()) {
      break;
    }
  }
  trace->end_ns = NowNs();
  trace->pump_children_ns = timer.outermost_ns() - children_before;
  trace->pump_events = engine.events_fired() - events_before;

  result.hit_time_limit =
      (kernel.live_tasks() > 0 || kernel.pending_injections() > 0) && !result.aborted;
  const SimTime end = completion.last_exit() > 0 ? completion.last_exit() : engine.Now();
  result.makespan = end;
  result.energy_joules = hw.EnergyJoules();
  result.underload_per_s = underload.UnderloadPerSecond(end);
  result.freq_hist = freq.Snapshot(end);
  result.cpus_used = underload.CpusEverUsed();
  result.events_fired = engine.events_fired();
  result.context_switches = kernel.context_switches();
  result.migrations = kernel.total_migrations();
  result.tasks_created = static_cast<int>(kernel.tasks().size());
  for (const auto& [tag, t] : completion.tag_last_exit()) {
    result.tag_makespan[tag] = t;
  }
  if (config.record_underload_series) {
    result.underload_series = underload.series();
  }
  result.counters = counters.Finish(end);
  return result;
}

}  // namespace perfbench
