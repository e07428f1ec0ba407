// The simulation run loop.
//
// `Engine` owns the clock and the event queue. Components schedule callbacks
// with `ScheduleAt`/`ScheduleAfter`; the experiment driver pumps events with
// `Run*`. Time only advances when an event fires, so an empty queue means the
// simulation is quiescent.

#ifndef NESTSIM_SRC_SIM_ENGINE_H_
#define NESTSIM_SRC_SIM_ENGINE_H_

#include <cstdint>
#include <limits>

#include "src/sim/event_fn.h"
#include <cassert>

#include "src/sim/event_queue.h"
#include "src/sim/time.h"

namespace nestsim {

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `fn` at absolute time `t`. `t` must be >= Now().
  EventId ScheduleAt(SimTime t, EventFn fn) {
    assert(t >= now_ && "cannot schedule events in the past");
    return queue_.Push(t, std::move(fn));
  }

  // Schedules `fn` to run `delay` from now. `delay` must be >= 0.
  EventId ScheduleAfter(SimDuration delay, EventFn fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  // Cancels a pending event; no-op (returning false) if it already fired.
  bool Cancel(EventId id) { return queue_.Cancel(id); }

  // Fires the next event, advancing the clock to its timestamp.
  // Returns false (and does nothing) if the queue is empty.
  bool Step();

  // Pumps events until the queue is empty or the next event is after
  // `deadline`; the clock is then advanced to `deadline` if it has not
  // already passed it. Returns the number of events fired.
  uint64_t RunUntil(SimTime deadline);

  // Pumps events until the queue is empty. Returns the number fired.
  // `max_events` guards against runaway feedback loops.
  uint64_t RunUntilIdle(uint64_t max_events = std::numeric_limits<uint64_t>::max());

  bool Idle() const { return queue_.Empty(); }
  uint64_t events_fired() const { return events_fired_; }
  size_t pending_events() const { return queue_.Size(); }

  // Returned by NextEventTime when the queue is empty; sorts after any real
  // timestamp, so "min over engines" loops need no empty-queue special case.
  static constexpr SimTime kNoEvent = std::numeric_limits<SimTime>::max();

  // Timestamp of the earliest pending event, or kNoEvent on an empty queue.
  // Non-const because reading the heap top lazily reclaims cancelled entries.
  SimTime NextEventTime() { return queue_.Empty() ? kNoEvent : queue_.NextTime(); }

  // Jumps the clock forward to `t` without firing anything. The domain group
  // (src/sim/domain_group.h) uses this to line every domain clock up before a
  // cross-domain event or the final metric harvest (lazy integrators
  // such as HardwareModel::EnergyJoules integrate "up to Now()", so clocks
  // must agree on where the run ended). `t` must be >= Now(); events still
  // pending before `t` are not fired and keep their timestamps.
  void AdvanceTo(SimTime t) {
    assert(t >= now_ && "cannot advance the clock backwards");
    now_ = t;
  }

 private:
  EventQueue queue_;
  SimTime now_ = 0;
  uint64_t events_fired_ = 0;
};

}  // namespace nestsim

#endif  // NESTSIM_SRC_SIM_ENGINE_H_
