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
//
// A group whose owner called EnableWindows() may instead run in windows: all
// domains fire their events up to the next coordinator timestamp T
// concurrently, on helper threads the CPU budget (src/sim/cpu_budget.h)
// grants, then every clock advances to T and the coordinator fires its
// events at T alone. Each domain fires the same events in the same order as
// on the serial loop; docs/DOMAINS.md §4 gives the conditions and why.
// Windows start only after a short probe on the serial loop shows enough
// domain work between coordinator events to pay for them.

#ifndef NESTSIM_SRC_SIM_DOMAIN_GROUP_H_
#define NESTSIM_SRC_SIM_DOMAIN_GROUP_H_

#include <cstdint>
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
  //
  // With windows enabled and at least two domains, Run() first probes: the
  // serial loop fires every coordinator event at the first kProbeInstants
  // coordinator timestamps (instants). If the domains fired at least
  // kMinDomainEventsPerInstant events per instant meanwhile, the probe took
  // at least kMinHostNanosPerInstant of host time per instant, and the CPU
  // budget lends at least one helper thread, Run() pumps windows, one per
  // instant, while the coordinator's next event lies before time_limit;
  // the serial loop runs the rest. Which executor runs never changes a
  // result, so a decision that reads the host clock is safe. Inside a window,
  // `should_abort` is polled on each domain's stride from the pumping
  // thread, and `healthy` after every window. When domain events throw in a
  // window, the exception rethrown here is the earliest in canonical order,
  // the one the serial loop would have thrown.
  RunResult Run(const RunOptions& options);

  // The probe's length, and what it must show before windows start: enough
  // domain events per instant to share out between threads, and enough host
  // work per instant to pay for each window's hand-offs and barrier. Fleets
  // that place one request per instant fail the first (their windows hold
  // one busy machine), and fleets of cheap events the second; both ran
  // slower in windows than on the serial loop (docs/DOMAINS.md §4).
  static constexpr int kProbeInstants = 16;
  static constexpr uint64_t kMinDomainEventsPerInstant = 16;
  static constexpr int64_t kMinHostNanosPerInstant = 15'000;

  // Lets Run() pump the domains in windows. The caller guarantees that no
  // domain event schedules a coordinator event, and that `live` stays true
  // while the coordinator holds an event. `overlap`, if set, runs on the
  // calling thread at the start of every window while the domains run, so
  // it must touch nothing a domain event touches.
  void EnableWindows(std::function<void()> overlap = {});

  // Test seam: every Run() with windows enabled skips the probe and uses
  // exactly `workers` helper threads (0 runs the serial loop) instead of the
  // CPU budget's loan; a negative value restores the probe and the budget.
  // Process-wide.
  static void SetWorkersForTesting(int workers);

  // Advances every clock (domains and coordinator) to at least `t`; called
  // with Now() before harvesting metrics so lazy integrators all integrate
  // to the same horizon the shared-clock engine would have reached.
  void AdvanceAllTo(SimTime t);

 private:
  // Runs the serial loop until the run ends (returns true) or the
  // coordinator has fired its last event at `instants` more timestamps
  // (returns false).
  bool RunSerial(const RunOptions& options, int instants, RunResult* result);
  // Pumps windows on `workers` helper threads plus the caller while the
  // coordinator's next event lies before the time limit. Returns true when
  // the run ended inside (abort, `healthy` false), false when the serial loop
  // must run the rest.
  bool RunWindows(const RunOptions& options, int workers, RunResult* result);

  std::vector<std::unique_ptr<Engine>> domains_;
  Engine coordinator_;
  SimTime global_now_ = 0;
  bool windows_ = false;
  std::function<void()> overlap_;
};

}  // namespace nestsim

#endif  // NESTSIM_SRC_SIM_DOMAIN_GROUP_H_
