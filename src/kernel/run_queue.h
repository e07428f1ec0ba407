// Per-CPU run queue with CFS virtual-runtime ordering.
//
// Also carries the per-CPU utilisation signal (the input to schedutil and to
// CFS's load heuristics) and the placement-reservation flag of paper §3.4.

#ifndef NESTSIM_SRC_KERNEL_RUN_QUEUE_H_
#define NESTSIM_SRC_KERNEL_RUN_QUEUE_H_

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "src/kernel/pelt.h"
#include "src/kernel/task.h"

namespace nestsim {

class RunQueue {
 public:
  RunQueue() = default;

  // ---- Queue of runnable (not running) tasks, ordered by vruntime. ----

  void Enqueue(Task* task);
  void Dequeue(Task* task);
  bool Queued(const Task* task) const;

  // The queued task with the smallest vruntime, or nullptr. O(1): the
  // leftmost task is cached across Enqueue/Dequeue (vruntime is immutable
  // while a task is queued, so the cache only changes on those two ops).
  Task* Leftmost() const { return leftmost_; }
  // The queued task with the *largest* vruntime (what load balancing steals
  // first: it has waited least recently), or nullptr.
  Task* Rightmost() const;

  // Queued tasks in vruntime order (copy; for the load balancer's candidate
  // scan — queues are short).
  std::vector<Task*> QueuedTasks() const;

  int QueuedCount() const { return static_cast<int>(queue_.size()); }

  // ---- The running task. ----

  Task* curr() const { return curr_; }
  void set_curr(Task* task) { curr_ = task; }

  // Runnable + running.
  int NrRunning() const { return QueuedCount() + (curr_ != nullptr ? 1 : 0); }
  bool Idle() const { return NrRunning() == 0; }

  // ---- vruntime base. ----

  double min_vruntime() const { return min_vruntime_; }
  void UpdateMinVruntime();

  // ---- Placement reservation (paper §3.4). ----
  // A policy that uses reservations claims the CPU at selection time; the
  // claim clears when the enqueue lands. Claims auto-expire via claim_time in
  // case a placement is abandoned.

  bool TryClaim(SimTime now);
  void ClearClaim() { claimed_ = false; }
  bool claimed() const { return claimed_; }

  // How long an unclear claim keeps excluding the CPU. Public so the
  // invariant checker (src/check/) can mirror the claim state machine.
  static constexpr SimDuration kClaimTimeout = 100 * kMicrosecond;

  // ---- Per-CPU utilisation (PELT-ish). ----

  PeltSignal& util() { return util_; }
  const PeltSignal& util() const { return util_; }

  // Zeroes the utilisation at `now` — a core leaving or rejoining the
  // online set keeps no history — as a placement change, so loads memoised
  // at this instant are not reused.
  void ResetUtil(SimTime now) {
    util_.Set(now, 0.0);
    ++placement_gen_;
  }

  // ---- Placement recency ("runnable load"). ----
  // Every enqueue bumps this by one task-weight; it decays with a ~12 ms
  // half-life. CFS's fork path adds it to the utilisation signal, which is
  // what makes recently used (but now idle) CPUs lose to long-idle ones —
  // the dispersal bias of paper §2.1.

  void BumpPlacement(SimTime now) {
    placement_load_ = PlacementLoad(now) + 1.0;
    placement_update_ = now;
    placement_memo_now_ = -1;  // state changed; drop the cached decay
    ++placement_gen_;
  }
  // Bumped on every placement change and utilisation reset; lets callers
  // memoise derived loads per instant (otherwise the utilisation signal
  // cannot change twice within one instant — PELT updates are no-ops at
  // dt == 0 — so (now, placement_gen) keys the full load state of this
  // queue).
  uint64_t placement_gen() const { return placement_gen_; }
  // Placement scans ask every candidate CPU for this, often several times at
  // the same instant; cache the last (now -> value) pair so only the first
  // call per instant pays the exp2.
  double PlacementLoad(SimTime now) const {
    // 0 * 2^x == +0.0 for any finite x, so a drained signal skips the exp2.
    if (placement_load_ == 0.0) {
      return placement_load_;
    }
    const SimDuration dt = now - placement_update_;
    if (dt <= 0) {
      return placement_load_;
    }
    if (now == placement_memo_now_) {
      return placement_memo_value_;
    }
    const double value = DecayedPlacementLoad(dt);
    placement_memo_now_ = now;
    placement_memo_value_ = value;
    return value;
  }

 private:
  struct ByVruntime {
    bool operator()(const std::pair<double, Task*>& a, const std::pair<double, Task*>& b) const {
      if (a.first != b.first) {
        return a.first < b.first;
      }
      return a.second->tid < b.second->tid;
    }
  };

  std::set<std::pair<double, Task*>, ByVruntime> queue_;
  Task* leftmost_ = nullptr;  // == queue_.begin()->second (nullptr if empty)
  Task* curr_ = nullptr;
  double min_vruntime_ = 0.0;
  bool claimed_ = false;
  SimTime claim_time_ = 0;
  PeltSignal util_;
  double DecayedPlacementLoad(SimDuration dt) const;

  double placement_load_ = 0.0;
  SimTime placement_update_ = 0;
  uint64_t placement_gen_ = 0;
  mutable SimTime placement_memo_now_ = -1;
  mutable double placement_memo_value_ = 0.0;

  static constexpr SimDuration kPlacementHalfLife = 10 * kMillisecond;
};

}  // namespace nestsim

#endif  // NESTSIM_SRC_KERNEL_RUN_QUEUE_H_
