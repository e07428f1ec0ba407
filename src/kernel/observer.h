// Observation hooks for metrics and experiment drivers.
//
// Observers are notified synchronously from inside the kernel; they must not
// mutate scheduler state. Everything the metrics module computes (underload,
// frequency residency, traces, energy alignment) hangs off these callbacks.

#ifndef NESTSIM_SRC_KERNEL_OBSERVER_H_
#define NESTSIM_SRC_KERNEL_OBSERVER_H_

#include "src/kernel/task.h"
#include "src/sim/time.h"

namespace nestsim {

// Why a queued task was migrated between run queues.
enum class MigrationReason {
  kNewIdlePull,   // newly idle CPU pulled a waiter
  kPeriodicPull,  // periodic balancing pass pulled a waiter
  kPolicy,        // policy-driven move (e.g. Smove's fallback timer)
};

inline const char* MigrationReasonName(MigrationReason reason) {
  switch (reason) {
    case MigrationReason::kNewIdlePull:
      return "newidle_pull";
    case MigrationReason::kPeriodicPull:
      return "periodic_pull";
    case MigrationReason::kPolicy:
      return "policy";
  }
  return "?";
}

// Nest membership transitions (paper §3.1), surfaced by NestPolicy through
// Kernel::NotifyNestEvent.
enum class NestEventKind {
  kPromote,      // core entered the primary nest
  kDemote,       // core left the primary nest (task exit left it idle)
  kCompact,      // core left the primary nest via compaction (idle ≥ P_remove)
  kReserveAdd,   // core entered the reserve nest
  kReserveFull,  // candidate core dropped because the reserve was at R_max
};

inline const char* NestEventKindName(NestEventKind kind) {
  switch (kind) {
    case NestEventKind::kPromote:
      return "promote";
    case NestEventKind::kDemote:
      return "demote";
    case NestEventKind::kCompact:
      return "compact";
    case NestEventKind::kReserveAdd:
      return "reserve_add";
    case NestEventKind::kReserveFull:
      return "reserve_full";
  }
  return "?";
}

// Cache-warmth dispatch outcomes (src/hw/cache_model.h), surfaced by the
// kernel when a task starts running with warmth tracking enabled.
enum class CacheEventKind {
  kWarmHit,            // dispatched onto an LLC where its warmth >= threshold
  kColdMiss,           // dispatched onto an LLC where its warmth < threshold
  kCrossDieMigration,  // resumed on a different LLC; paid the migration cost
};

inline const char* CacheEventKindName(CacheEventKind kind) {
  switch (kind) {
    case CacheEventKind::kWarmHit:
      return "warm_hit";
    case CacheEventKind::kColdMiss:
      return "cold_miss";
    case CacheEventKind::kCrossDieMigration:
      return "cross_die_migration";
  }
  return "?";
}

// Fault-injection transitions (src/fault/), surfaced by the kernel when a
// fault plan offlines/onlines cores or the cluster runner crashes a machine.
enum class FaultEventKind {
  kCoreOffline,       // core failed; its run queue was evacuated
  kCoreOnline,        // core repaired; re-joined placement
  kMachineCrash,      // whole machine failed (cluster runs)
  kTaskEvacuated,     // a displaced task was re-placed (fault_evacuate path)
  kTaskKilled,        // a task died with the core/machine (work lost)
  kReplicaQuorumJoin, // a replicated request part reached its quorum
  kReplicaReaped,     // a losing replica was reaped after quorum
};

inline const char* FaultEventKindName(FaultEventKind kind) {
  switch (kind) {
    case FaultEventKind::kCoreOffline:
      return "core_offline";
    case FaultEventKind::kCoreOnline:
      return "core_online";
    case FaultEventKind::kMachineCrash:
      return "machine_crash";
    case FaultEventKind::kTaskEvacuated:
      return "task_evacuated";
    case FaultEventKind::kTaskKilled:
      return "task_killed";
    case FaultEventKind::kReplicaQuorumJoin:
      return "replica_quorum_join";
    case FaultEventKind::kReplicaReaped:
      return "replica_reaped";
  }
  return "?";
}

// One bit per KernelObserver callback. The kernel keeps a dispatch list per
// event, built from each observer's InterestMask() at registration, so firing
// a callback only walks observers that actually override it — an event nobody
// subscribed to costs one empty-vector check.
enum ObserverEvent : uint32_t {
  kObsTaskCreated = 1u << 0,
  kObsTaskEnqueued = 1u << 1,
  kObsContextSwitch = 1u << 2,
  kObsCpuSpeedChange = 1u << 3,
  kObsTaskBlocked = 1u << 4,
  kObsTaskExit = 1u << 5,
  kObsTick = 1u << 6,
  kObsTaskPlaced = 1u << 7,
  kObsReservationCollision = 1u << 8,
  kObsTaskMigrated = 1u << 9,
  kObsNestEvent = 1u << 10,
  kObsIdleSpinStart = 1u << 11,
  kObsIdleSpinEnd = 1u << 12,
  kObsCoreFreqChange = 1u << 13,
  kObsCacheEvent = 1u << 14,
  kObsFaultEvent = 1u << 15,
  kObsBudgetState = 1u << 16,
};

inline constexpr int kNumObserverEvents = 17;
inline constexpr uint32_t kObsAllEvents = (1u << kNumObserverEvents) - 1;

class KernelObserver {
 public:
  virtual ~KernelObserver() = default;

  // Which callbacks this observer wants, as an OR of ObserverEvent bits.
  // Consulted once, when the observer is added to the kernel. The default
  // subscribes to everything so subclasses that don't override it (tests,
  // one-off probes) keep working; the built-in observers narrow it to what
  // they implement.
  virtual uint32_t InterestMask() const { return kObsAllEvents; }

  virtual void OnTaskCreated(SimTime now, const Task& task) {
    (void)now;
    (void)task;
  }

  // A task became runnable (enqueued) on `cpu`.
  virtual void OnTaskEnqueued(SimTime now, const Task& task, int cpu) {
    (void)now;
    (void)task;
    (void)cpu;
  }

  // `cpu` switched from `prev` (may be nullptr == idle) to `next` (may be
  // nullptr == going idle).
  virtual void OnContextSwitch(SimTime now, int cpu, const Task* prev, const Task* next) {
    (void)now;
    (void)cpu;
    (void)prev;
    (void)next;
  }

  // A running CPU's effective speed changed (frequency ramp or SMT sibling).
  virtual void OnCpuSpeedChange(SimTime now, int cpu) {
    (void)now;
    (void)cpu;
  }

  // A task blocked (left the CPU voluntarily).
  virtual void OnTaskBlocked(SimTime now, const Task& task, int cpu) {
    (void)now;
    (void)task;
    (void)cpu;
  }

  virtual void OnTaskExit(SimTime now, const Task& task) {
    (void)now;
    (void)task;
  }

  // Scheduler tick boundary (after per-CPU accounting ran).
  virtual void OnTick(SimTime now) { (void)now; }

  // ---- Decision-level hooks (src/obs/). ----

  // The policy selected `cpu` for a fork or wakeup placement; the enqueue is
  // now in flight (§3.4 window). `task.placement_path` says which policy code
  // path decided. Fired for SpawnInitial too (path == kInitial).
  virtual void OnTaskPlaced(SimTime now, const Task& task, int cpu, bool is_fork) {
    (void)now;
    (void)task;
    (void)cpu;
    (void)is_fork;
  }

  // A reservation-aware policy chose `cpu` but the run queue was already
  // claimed by another in-flight placement — the collision the §3.4 flag
  // could not prevent.
  virtual void OnReservationCollision(SimTime now, const Task& task, int cpu) {
    (void)now;
    (void)task;
    (void)cpu;
  }

  // A *queued* task moved between run queues (load balancing or policy).
  virtual void OnTaskMigrated(SimTime now, const Task& task, int from_cpu, int to_cpu,
                              MigrationReason reason) {
    (void)now;
    (void)task;
    (void)from_cpu;
    (void)to_cpu;
    (void)reason;
  }

  // Nest membership transition on `cpu` (promotion/demotion/compaction/...).
  virtual void OnNestEvent(SimTime now, NestEventKind kind, int cpu) {
    (void)now;
    (void)kind;
    (void)cpu;
  }

  // The idle loop on `cpu` started a policy-driven warm spin for up to
  // `max_ticks` ticks (§3.2).
  virtual void OnIdleSpinStart(SimTime now, int cpu, int max_ticks) {
    (void)now;
    (void)cpu;
    (void)max_ticks;
  }

  // The warm spin on `cpu` ended. `became_busy` is true when a task started
  // running there (the spin paid off); false when the spin expired or the SMT
  // sibling became busy.
  virtual void OnIdleSpinEnd(SimTime now, int cpu, bool became_busy) {
    (void)now;
    (void)cpu;
    (void)became_busy;
  }

  // The DVFS state machine moved physical core `phys_core` to `freq_ghz`
  // (ramps, instant arrival grants, idle decay — busy or not).
  virtual void OnCoreFreqChange(SimTime now, int phys_core, double freq_ghz) {
    (void)now;
    (void)phys_core;
    (void)freq_ghz;
  }

  // Cache-warmth outcome of a dispatch: `task` started running on `cpu` with
  // warmth `warmth` on the destination LLC. Only fired when warmth tracking
  // is active (src/hw/cache_model.h); a cross-die resume fires
  // kCrossDieMigration *and* its warm-hit/cold-miss classification.
  virtual void OnCacheEvent(SimTime now, const Task& task, CacheEventKind kind, int cpu,
                            double warmth) {
    (void)now;
    (void)task;
    (void)kind;
    (void)cpu;
    (void)warmth;
  }

  // Fault-injection transition (src/fault/). `cpu` is the affected logical
  // CPU (-1 for machine-level events); `task` is the displaced/killed/joined
  // task for the task-level kinds, nullptr otherwise.
  virtual void OnFaultEvent(SimTime now, FaultEventKind kind, int cpu, const Task* task) {
    (void)now;
    (void)kind;
    (void)cpu;
    (void)task;
  }

  // Per-socket energy-budget state, sampled at every scheduler tick while a
  // budget governor is active. `headroom_w` is budget minus the socket's
  // current power draw (negative == over budget); `throttled` says the
  // governor is currently scaling frequency requests down on this socket.
  virtual void OnBudgetState(SimTime now, int socket, double headroom_w, bool throttled) {
    (void)now;
    (void)socket;
    (void)headroom_w;
    (void)throttled;
  }
};

}  // namespace nestsim

#endif  // NESTSIM_SRC_KERNEL_OBSERVER_H_
