// The simulated task structure (a pared-down task_struct).

#ifndef NESTSIM_SRC_KERNEL_TASK_H_
#define NESTSIM_SRC_KERNEL_TASK_H_

#include <string>
#include <vector>

#include "src/kernel/pelt.h"
#include "src/kernel/program.h"
#include "src/sim/event_queue.h"
#include "src/sim/time.h"

namespace nestsim {

enum class TaskState {
  kRunnable,  // enqueued on a run queue, waiting for the CPU
  kRunning,   // current task of some CPU
  kBlocked,   // sleeping / waiting on a channel, barrier, or join
  kPlacing,   // woken or forked, core selected, enqueue in flight (§3.4 window)
  kDead,
};

enum class BlockReason { kNone, kSleep, kJoin, kBarrier, kRecv };

// Which policy code path produced a fork/wake placement decision. Set by the
// scheduler policy at selection time, read by the kernel when it notifies
// observers (src/obs/ counts decisions per path and labels trace events).
enum class PlacementPath {
  kUnknown = 0,
  kInitial,          // SpawnInitial's fixed CPU; no policy involved
  kCfsFork,          // CFS find_idlest_group descent
  kCfsWake,          // CFS wake_affine + select_idle_sibling
  kNestPrimary,      // idle unclaimed primary-nest core (§3.1)
  kNestReserve,      // reserve-nest hit, promoted to primary (§3.1)
  kNestAttached,     // 2-deep placement-history attachment (§3.3)
  kNestPrevCore,     // idle previous core outside the nests (§5.4)
  kNestImpatient,    // impatience path: reserve or CFS, straight to primary
  kNestCfsFallback,  // both nests busy; CFS chose, core joins the reserve
  kSmoveParked,      // Smove parked the task on the fast parent/waker core
  kSmoveCfs,         // Smove kept the CFS choice
  kNestCacheWarm,    // NestCache re-anchored the search to the warm LLC
  kFaultEvacuate,    // re-placement of a task displaced by a core failure
  kNestPredicted,    // NestPredict took the model's predicted CPU (src/predict/)
  kNestOracleWarm,   // NestOracle placed inside the replayed warm pool
};

inline constexpr int kNumPlacementPaths = 16;

inline const char* PlacementPathName(PlacementPath path) {
  switch (path) {
    case PlacementPath::kUnknown:
      return "unknown";
    case PlacementPath::kInitial:
      return "initial";
    case PlacementPath::kCfsFork:
      return "cfs_fork";
    case PlacementPath::kCfsWake:
      return "cfs_wake";
    case PlacementPath::kNestPrimary:
      return "nest_primary";
    case PlacementPath::kNestReserve:
      return "nest_reserve";
    case PlacementPath::kNestAttached:
      return "nest_attached";
    case PlacementPath::kNestPrevCore:
      return "nest_prev_core";
    case PlacementPath::kNestImpatient:
      return "nest_impatient";
    case PlacementPath::kNestCfsFallback:
      return "nest_cfs_fallback";
    case PlacementPath::kSmoveParked:
      return "smove_parked";
    case PlacementPath::kSmoveCfs:
      return "smove_cfs";
    case PlacementPath::kNestCacheWarm:
      return "nest_cache_warm";
    case PlacementPath::kFaultEvacuate:
      return "fault_evacuate";
    case PlacementPath::kNestPredicted:
      return "nest_predicted";
    case PlacementPath::kNestOracleWarm:
      return "nest_oracle_warm";
  }
  return "?";
}

struct Task {
  int tid = -1;
  std::string name;
  int tag = 0;  // workload tag; metrics are segregated per tag

  // Program interpreter state. The kernel drops `program` when the task
  // exits or is killed.
  ProgramPtr program;
  size_t pc = 0;
  struct LoopFrame {
    size_t begin_pc;  // pc of the op right after kLoopBegin
    int remaining;
  };
  std::vector<LoopFrame> loop_stack;
  double remaining_work = 0.0;  // GHz-ns left in the current compute op
  // True while the implicit syscall cost of the op at `pc` (fork/send/recv)
  // is being charged as compute.
  bool op_cost_paid = false;

  TaskState state = TaskState::kBlocked;
  BlockReason block_reason = BlockReason::kNone;

  int cpu = -1;            // run queue the task is on (valid unless kDead)
  int prev_cpu = -1;       // CPU of the last execution
  int prev_prev_cpu = -1;  // CPU of the execution before that (Nest §3.3)

  double vruntime = 0.0;
  PeltSignal util;

  // Per-LLC cache warmth, indexed by socket (src/hw/cache_model.h): rises
  // while the task runs on that socket, decays otherwise, both with the PELT
  // half-life. Empty — and never touched — unless the kernel tracks warmth
  // (cache model enabled or the policy wants it).
  std::vector<PeltSignal> llc_warmth;

  Task* parent = nullptr;
  int live_children = 0;
  int join_threshold = 0;  // wake from kJoin when live_children <= this

  // Nest per-task state: consecutive wakeups that found prev_cpu busy.
  int impatience = 0;

  // The policy path that made the most recent placement decision for this
  // task; consumed by KernelObserver::OnTaskPlaced.
  PlacementPath placement_path = PlacementPath::kUnknown;

  // When a core failure displaced this task (-1 == never); cleared when it
  // next gets a CPU. The gap is the re-placement latency resilience metric.
  SimTime evacuated_at = -1;

  // Execution segment bookkeeping (valid while kRunning).
  SimTime seg_start = 0;
  double seg_speed_ghz = 0.0;
  EventId completion_event = kInvalidEventId;
  SimTime sched_in_time = 0;  // when this task last got the CPU

  // Statistics.
  SimTime created_at = 0;
  SimTime exited_at = -1;
  SimTime last_wakeup = 0;
  SimDuration total_runtime = 0;
  SimDuration total_wait = 0;  // runnable-but-not-running time
  int migrations = 0;
  int wakeups = 0;

  bool IsQueuedOrRunning() const {
    return state == TaskState::kRunnable || state == TaskState::kRunning;
  }
};

}  // namespace nestsim

#endif  // NESTSIM_SRC_KERNEL_TASK_H_
