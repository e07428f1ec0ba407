// The kernel: scheduling mechanism, task lifecycle, and program execution.
//
// The kernel owns per-CPU run queues, the tick, context switching, the
// task-program interpreter, sleeping/waking, channels and barriers, the idle
// loop (including policy-driven warm spinning, §3.2), and load balancing.
// Core *selection* on fork and wakeup is delegated to a SchedulerPolicy
// (CFS / Nest / Smove); frequency requests are delegated to a Governor.
//
// Placement happens in two steps, as in Linux (§3.4): the policy selects a
// CPU, then the enqueue lands `placement_latency` later. Policies that use
// placement reservation claim the run queue in between; others can collide.

#ifndef NESTSIM_SRC_KERNEL_KERNEL_H_
#define NESTSIM_SRC_KERNEL_KERNEL_H_

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/hw/cache_model.h"
#include "src/hw/hardware.h"
#include "src/kernel/cpu_mask.h"
#include "src/kernel/domains.h"
#include "src/kernel/governor.h"
#include "src/kernel/observer.h"
#include "src/kernel/policy.h"
#include "src/kernel/run_queue.h"
#include "src/kernel/sync.h"
#include "src/kernel/task.h"
#include "src/sim/engine.h"

namespace nestsim {

class Kernel {
 public:
  struct Params {
    // Select-to-enqueue latency; the §3.4 collision window.
    SimDuration placement_latency = 2 * kMicrosecond;
    // CFS preemption tunables (defaults mirror Linux, scaled for weight-1).
    SimDuration min_granularity = 750 * kMicrosecond;
    SimDuration wakeup_granularity = 1 * kMillisecond;
    SimDuration sleeper_credit = 3 * kMillisecond;  // GENTLE_FAIR_SLEEPERS
    // Implicit syscall costs, in GHz-ns.
    double fork_cost_work = 15e3;  // ~15 us at 1 GHz
    double send_cost_work = 2e3;
    double recv_cost_work = 2e3;
    // Load balancing.
    bool enable_newidle_balance = true;
    bool enable_periodic_balance = true;
    // Only steal queued tasks that have waited at least this long (a crude
    // cache-hotness guard).
    SimDuration steal_min_wait = 100 * kMicrosecond;
    // Cache-refill work (GHz-ns) charged when a task resumes on a different
    // core than its last one; crossing sockets also refills the LLC. This is
    // what makes placement cascades and nest-bouncing expensive (the paper
    // correlates its hackbench slowdown with instruction-cache misses).
    double migration_cost_work = 80e3;        // same die, ~25 us at 3 GHz
    double cross_die_migration_cost_work = 400e3;
    // Cache/NUMA warmth model (src/hw/cache_model.h): per-task LLC warmth, a
    // warm-cache speedup on the service rate, and an extra cross-LLC
    // migration charge. Defaults are a disabled model; the kernel skips all
    // warmth bookkeeping unless this is enabled or the policy wants warmth.
    CacheParams cache;
    // Fault injection for the invariant-checker self-tests (src/check/): when
    // > 0, every Nth EnqueueTask skips the final dispatch/preemption step —
    // a deliberate lost wakeup. 0 (the default) disables the hook; production
    // code must never set it.
    int test_skip_enqueue_dispatch_every = 0;
  };

  Kernel(Engine* engine, HardwareModel* hw, SchedulerPolicy* policy, Governor* governor);
  Kernel(Engine* engine, HardwareModel* hw, SchedulerPolicy* policy, Governor* governor,
         Params params);
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // Wires hardware callbacks and starts the tick. Call once before spawning.
  void Start();

  // ---- Workload-facing API. ----

  // Creates a root task and enqueues it on `cpu` immediately (no policy
  // involvement — this is the process that "starts" the workload). The first
  // SpawnInitial CPU becomes root_cpu(), which Nest uses as the fixed start
  // for reserve-nest searches.
  Task* SpawnInitial(ProgramPtr program, std::string name, int tag, int cpu = 0);

  // Creates a detached task through the *policy* fork path — this is how an
  // external request (network IRQ on the boot CPU) enters the machine. Unlike
  // SpawnInitial, the policy chooses the CPU, so Nest/Smove placement applies
  // from the first instruction. Used by the open-loop request workloads and
  // the cluster serving layer (src/cluster/).
  Task* InjectTask(ProgramPtr program, std::string name, int tag);

  // Schedules InjectTask at absolute simulated time `when`. The pending count
  // keeps experiment run loops alive while arrivals are still in flight even
  // if the machine is momentarily empty (open-loop traffic). When it fires,
  // the injection hook, if set, receives the injected task and `cookie`.
  void ScheduleInjection(SimTime when, ProgramPtr program, std::string name, int tag,
                         size_t cookie = 0);

  // Injections scheduled via ScheduleInjection that have not yet fired.
  int pending_injections() const {
    return static_cast<int>(injections_.size() - free_injections_.size());
  }

  // Called with the task each ScheduleInjection creates (the first copy when
  // replication is on) and that injection's cookie, right after the task's
  // fork placement. The fleet runner tracks request copies through it.
  using InjectionFn = std::function<void(Task* task, size_t cookie)>;
  void set_injection_fn(InjectionFn fn) { injection_fn_ = std::move(fn); }

  // Replicates every subsequent InjectTask into `replicas` copies sharing a
  // fresh replica group: the first `quorum` copies to exit win and the rest
  // are reaped (src/fault/). Single-machine runs only — the cluster runner
  // replicates across machines itself. replicas <= 1 disables (the default);
  // the copies share the already-drawn program, so enabling replication does
  // not perturb any workload randomness.
  void SetInjectionReplication(int replicas, int quorum);

  // ---- Fault injection (src/fault/). ----

  // Whether `cpu` is online (failed cores are refused by every placement and
  // balancing path until OnlineCpu). All CPUs start online.
  bool CpuOnline(int cpu) const { return cpus_[cpu].online; }
  int online_cpus() const { return online_cpus_; }

  // Takes `cpu` offline: stops any warm spin, displaces the running task,
  // drains the queue, clears the §3.4 claim, hard-resets the queue's PELT
  // signal, forces the hardware thread idle, and re-places every displaced
  // task through the policy (placement path kFaultEvacuate). Returns false —
  // and does nothing — if the CPU is already offline or is the last online
  // CPU (the machine always keeps one core).
  bool OfflineCpu(int cpu);

  // Brings a failed CPU back. Its queue restarts empty with a fresh PELT
  // signal; no policy membership is restored (the core re-earns its way in).
  void OnlineCpu(int cpu);

  // Kills a task in any state without running its program to completion: no
  // OnTaskExit observer fires (killed work must not count as completed), but
  // parents are still un-blocked and sync wait lists cleaned. `kind` is the
  // fault event emitted (kTaskKilled for failures, kReplicaReaped for
  // post-quorum reaping). No-op on already-dead tasks.
  void KillTask(Task* task, FaultEventKind kind = FaultEventKind::kTaskKilled);

  // Forwards a fault transition to the observers. Public because the fault
  // injector and the cluster runner (machine crashes) emit events too.
  void NotifyFaultEvent(FaultEventKind kind, int cpu, const Task* task);

  // Declares a reusable barrier with `parties` participants.
  void CreateBarrier(int id, int parties) { sync_.CreateBarrier(id, parties); }

  // ---- Introspection (policies, metrics, tests). ----

  Engine& engine() { return *engine_; }
  HardwareModel& hw() { return *hw_; }
  const Topology& topology() const { return hw_->topology(); }
  const DomainTree& domains() const { return domains_; }
  const Params& params() const { return params_; }
  SchedulerPolicy& policy() { return *policy_; }
  const Governor& governor() const { return *governor_; }

  RunQueue& rq(int cpu) { return cpus_[cpu].rq; }
  const RunQueue& rq(int cpu) const { return cpus_[cpu].rq; }

  // Idle from the scheduler's point of view: nothing running or queued.
  // Offline CPUs are never idle — they must lose every placement scan.
  bool CpuIdle(int cpu) const { return cpus_[cpu].online && cpus_[cpu].rq.Idle(); }

  // Idle and not claimed by an in-flight placement. What reservation-aware
  // policies (Nest) check before selecting a CPU.
  bool CpuIdleUnclaimed(int cpu) const {
    return cpus_[cpu].online && cpus_[cpu].rq.Idle() && !cpus_[cpu].rq.claimed();
  }

  // The CPU's decayed utilisation in [0, 1], updated to now. This is the
  // "recent load" CFS consults and the signal schedutil sees. Inline: every
  // placement scan calls it per candidate CPU.
  double CpuUtil(int cpu) {
    RunQueue& rq = cpus_[cpu].rq;
    rq.util().Update(engine_->Now(), rq.curr() != nullptr ? 1.0 : 0.0);
    return rq.util().raw();
  }

  // Claims `cpu` for an in-flight placement; false if already claimed.
  bool TryClaimCpu(int cpu) { return cpus_[cpu].rq.TryClaim(engine_->Now()); }

  // Whether per-task LLC warmth is maintained this run: the cache model is
  // enabled or the policy asked for warmth. Fixed at construction.
  bool TracksCacheWarmth() const { return cache_tracking_; }

  // The task's decayed warmth on `cpu`'s LLC domain, in [0, 1]; 0.0 when
  // warmth is not tracked. Read-only (lazy decay), usable from policies.
  double LlcWarmth(const Task& task, int cpu) const {
    if (task.llc_warmth.empty()) {
      return 0.0;
    }
    return task.llc_warmth[topology().SocketOf(cpu)].ValueAt(engine_->Now());
  }

  int root_cpu() const { return root_cpu_; }
  int live_tasks() const { return live_tasks_; }
  int live_tasks_for_tag(int tag) const;
  uint64_t context_switches() const { return context_switches_; }
  uint64_t total_migrations() const { return migrations_; }

  const std::vector<std::unique_ptr<Task>>& tasks() const { return tasks_; }

  // Registers an observer. Its InterestMask() is read here (once) to build
  // the per-event dispatch lists; notification order within an event follows
  // registration order.
  void AddObserver(KernelObserver* observer);

  // O(1) work-conservation check: some CPU idle while some CPU has waiting
  // tasks. The two masks are maintained on every run-queue mutation, so this
  // matches a full scan of the run queues at any observer notification point.
  bool WorkConservationViolated() const {
    return idle_cpus_.Any() && overloaded_cpus_.Any();
  }

  // Count of tasks in state kRunnable/kRunning/kPlacing, machine-wide.
  // Maintained incrementally; used by the underload metric.
  int runnable_tasks() const { return runnable_tasks_; }

  // Bumped whenever any CPU's run-queue contents, running task or online
  // state may have changed (every UpdateCpuMasks call). Within one instant,
  // an unchanged generation means every per-CPU input of a placement scan —
  // idle, nr_running, queued count, placement load, utilisation, online —
  // is unchanged too, so CFS's fork descent can reuse its previous result.
  uint64_t sched_gen() const { return sched_gen_; }

  // ---- Internal operations exposed for load-balancer reuse and tests. ----

  // Migrates a *queued* task from its run queue to `dst_cpu` (load-balancer
  // pull). The task must be kRunnable and queued. The caller must follow up
  // with KickIfIdle(dst_cpu) unless it is already inside the destination's
  // scheduling path.
  void MigrateQueued(Task* task, int dst_cpu,
                     MigrationReason reason = MigrationReason::kPolicy);

  // Forwards a nest membership transition to the observers. Called by
  // NestPolicy (the policy has no observer list of its own).
  void NotifyNestEvent(NestEventKind kind, int cpu);

  // Dispatches the destination CPU if it is idle with queued work (used after
  // policy-driven migrations, e.g. Smove's fallback timer).
  void KickIfIdle(int cpu);

 private:
  struct CpuState {
    RunQueue rq;
    bool spinning = false;          // Nest warm-spin in the idle loop
    EventId spin_end = kInvalidEventId;
    SimTime idle_since = 0;         // when the CPU last became idle
    uint64_t dispatch_gen = 0;      // cancels stale delayed dispatches
    bool online = true;             // false while failed (src/fault/)
  };

  // A ScheduleInjection that has not fired. Its event captures only the
  // slot index, so the closure fits EventFn's inline buffer.
  struct PendingInjection {
    ProgramPtr program;
    std::string name;
    int tag = 0;
    size_t cookie = 0;
  };

  // Replica-quorum bookkeeping for injected tasks (src/fault/).
  struct ReplicaGroup {
    std::vector<Task*> members;
    int quorum = 1;
    int completions = 0;
    bool reaped = false;
  };

  // -- Task lifecycle --
  Task* NewTask(ProgramPtr program, std::string name, int tag, Task* parent);
  void ForkChild(Task& parent, ProgramPtr program);
  void WakeTask(Task* task, int waker_cpu, bool sync);
  void PlaceTask(Task* task, int cpu, bool is_fork);
  void EnqueueTask(Task* task, int cpu, bool wakeup);
  void BlockCurrent(int cpu, BlockReason reason);
  void ExitCurrent(int cpu);

  // -- CPU scheduling --
  void ScheduleCpu(int cpu);           // pick next / go idle
  void StartRunning(Task* task, int cpu);
  // Dispatch-time cache-warmth accounting (warm/cold classification, cross-
  // LLC charge + reset). Only called when TracksCacheWarmth().
  void AccountCacheWarmth(Task* task, int cpu, SimTime now);
  void StopRunning(int cpu, bool requeue);  // preemption or yield
  void MaybePreempt(int cpu, Task* enqueued);
  void EnterIdle(int cpu);
  void StopSpin(int cpu, bool because_busy);

  // -- Execution engine --
  void ExecuteTask(int cpu);           // interpret ops until block/run/exit
  void BeginComputeSegment(int cpu);   // schedule completion of remaining_work
  void OnComputeComplete(int cpu, Task* task);
  void UpdateCurr(int cpu);            // account partial progress
  void OnSpeedChange(int cpu);

  // -- Program interpreter helpers --
  // Advances past non-blocking ops; returns when the task has compute work
  // (remaining_work > 0), blocked, or died.
  void InterpretOps(int cpu, Task* task);
  bool ArriveBarrier(Task* task, int id, int cpu);
  bool RecvMessage(Task* task, int id, int cpu);
  void SendMessage(Task* task, int id, int cpu);

  // -- Tick & balancing --
  void Tick();
  void NewIdleBalance(int cpu);
  void PeriodicBalance();
  Task* FindStealableTask(int dst_cpu, bool same_die_only, bool ignore_hotness);

  void SetRunnableDelta(int delta) { runnable_tasks_ += delta; }
  double GovernorRequestGhz(int cpu);
  void NotifyContextSwitch(int cpu, const Task* prev, const Task* next);

  // -- Fault machinery (src/fault/) --
  // Lowest-numbered online CPU: the deterministic redirect target when a
  // placement's chosen CPU went offline in flight.
  int FallbackOnlineCpu() const;
  // Fires the ScheduleInjection held in `slot`.
  void FireInjection(size_t slot);
  // One injected task (replica-aware wrapper body of InjectTask).
  Task* InjectOne(ProgramPtr program, std::string name, int tag, int replica_group);
  // Exit-side replica accounting: counts completions, fires the quorum join,
  // and schedules the reap of losing copies.
  void HandleReplicaExit(Task* task, int cpu);

  // Re-derives `cpu`'s bits in idle_cpus_/overloaded_cpus_ from its run
  // queue. Must run after every Enqueue/Dequeue/set_curr and before the
  // observer notifications that follow (the work-conservation metric samples
  // the masks from inside those callbacks). Offline CPUs are pinned out of
  // both masks: they are neither idle (work conservation must not expect
  // them to pull) nor overloaded (their queues are drained). Also bumps
  // sched_gen().
  void UpdateCpuMasks(int cpu) {
    const CpuState& cs = cpus_[cpu];
    idle_cpus_.Assign(cpu, cs.online && cs.rq.Idle());
    overloaded_cpus_.Assign(cpu, cs.online && cs.rq.QueuedCount() > 0);
    ++sched_gen_;
  }

  // Observers subscribed to `event` (one ObserverEvent bit), in registration
  // order.
  const std::vector<KernelObserver*>& observers_for(ObserverEvent event) const {
    return dispatch_[std::countr_zero(static_cast<uint32_t>(event))];
  }

  Engine* engine_;
  HardwareModel* hw_;
  SchedulerPolicy* policy_;
  Governor* governor_;
  Params params_;
  DomainTree domains_;
  SyncRegistry sync_;

  std::vector<CpuState> cpus_;
  std::vector<std::unique_ptr<Task>> tasks_;
  std::vector<KernelObserver*> observers_;
  // Per-event dispatch lists, indexed by ObserverEvent bit position.
  std::array<std::vector<KernelObserver*>, kNumObserverEvents> dispatch_;
  CpuMask overloaded_cpus_;  // cpus with queued (waiting) tasks
  CpuMask idle_cpus_;        // cpus with nothing running or queued
  std::vector<SimTime> task_enqueue_time_;  // by tid; for steal_min_wait

  int next_tid_ = 1;
  bool cache_tracking_ = false;  // params_.cache.enabled() || policy wants it
  uint64_t enqueue_count_ = 0;  // drives the test_skip_enqueue_dispatch hook
  int online_cpus_ = 0;          // count of online CPUs (== num_cpus unless faults)
  int injection_replicas_ = 1;   // copies per InjectTask (1 == off)
  int injection_quorum_ = 1;     // completions that win a replica group
  std::vector<ReplicaGroup> replica_groups_;  // indexed by Task::replica_group
  std::vector<PendingInjection> injections_;  // slots of unfired injections
  std::vector<size_t> free_injections_;       // reusable slots of injections_
  InjectionFn injection_fn_;
  int root_cpu_ = -1;
  int live_tasks_ = 0;
  int runnable_tasks_ = 0;
  uint64_t context_switches_ = 0;
  uint64_t migrations_ = 0;
  uint64_t sched_gen_ = 0;
  bool started_ = false;
};

}  // namespace nestsim

#endif  // NESTSIM_SRC_KERNEL_KERNEL_H_
