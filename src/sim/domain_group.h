// The domain group: one simulation over per-machine engines (docs/DOMAINS.md).
//
// A DomainGroup partitions one simulation into N *domains* — independent
// Engines, each with its own event queue and clock (the cluster layer gives
// every machine a domain) — plus one *coordinator* Engine carrying every
// cross-domain event: request arrivals with their router decision, and the
// replica-quorum reaps. Domains never touch each other's state directly; all
// interaction flows through coordinator events.
//
// Run() executes the union of all queues in one canonical total order:
//
//   (timestamp, domain id, insertion seq)   — coordinator = highest domain id
//
// by repeatedly firing the globally earliest event across all queues, and
// advancing every domain clock to a coordinator event's timestamp before it
// fires (lazy integrators such as PELT and the energy model read their
// domain clock). The order is a property of the event data alone, and every
// golden was recorded on it.

#ifndef NESTSIM_SRC_SIM_DOMAIN_GROUP_H_
#define NESTSIM_SRC_SIM_DOMAIN_GROUP_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace nestsim {

// N domain Engines plus one coordinator Engine, executed as one simulation.
class DomainGroup {
 public:
  explicit DomainGroup(int domains);
  DomainGroup(const DomainGroup&) = delete;
  DomainGroup& operator=(const DomainGroup&) = delete;

  int size() const { return static_cast<int>(domains_.size()); }
  Engine& domain(int i) { return *domains_[static_cast<size_t>(i)]; }
  Engine& coordinator() { return coordinator_; }

  // Timestamp of the last committed (fired) event, across every queue; the
  // group-wide analogue of Engine::Now(). This is the horizon lazy metric
  // integrators must be advanced to at teardown (AdvanceAllTo).
  SimTime Now() const { return global_now_; }

  // Sum of events fired across every queue (the bench denominator).
  uint64_t TotalEventsFired() const;

  // Schedules a cross-domain event: during setup before Run(), or from
  // inside any event.
  EventId ScheduleCoordinator(SimTime t, EventFn fn) {
    return coordinator_.ScheduleAt(t, std::move(fn));
  }

  struct RunOptions {
    SimTime time_limit = 0;

    // Loop predicate, required: keep running while it returns true. Run()
    // evaluates it before every event, exactly like the single-engine
    // experiment loop.
    std::function<bool()> live;

    // Wall-clock cancellation, polled every few thousand events.
    std::function<bool()> should_abort;

    // Fail-fast hook (the invariant checker), polled on the same stride;
    // returning false stops the run so the caller can raise the report.
    std::function<bool()> healthy;
  };

  struct RunResult {
    bool aborted = false;  // should_abort fired
  };

  // Executes until `live` goes false, the clock passes time_limit (one event
  // at or past the limit fires, matching the single-engine loop), every
  // queue drains, `healthy` goes false, or `should_abort` fires.
  RunResult Run(const RunOptions& options);

  // Advances every clock (domains and coordinator) to at least `t`; called
  // with Now() before harvesting metrics so lazy integrators all integrate
  // to the same horizon the shared-clock engine would have reached.
  void AdvanceAllTo(SimTime t);

 private:
  std::vector<std::unique_ptr<Engine>> domains_;
  Engine coordinator_;
  SimTime global_now_ = 0;
};

}  // namespace nestsim

#endif  // NESTSIM_SRC_SIM_DOMAIN_GROUP_H_
