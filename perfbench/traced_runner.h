// Layer tracing for the benchmark's traced run (README.md, "Traced run").
//
// TracedRunExperiment rebuilds RunExperiment's single-machine stack from the
// library's public constructors, wraps the scheduler policy, the governor and
// every observer in forwarding decorators that count and time each call, and
// pumps Engine::Step itself. What the pump span holds beyond its decorated
// children is the event core, the kernel mechanism and the hardware model
// together; only tracing inside the library could split those further.

#ifndef PERFBENCH_TRACED_RUNNER_H_
#define PERFBENCH_TRACED_RUNNER_H_

#include <chrono>
#include <cstdint>

#include "src/core/experiment.h"
#include "src/core/workload.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

// Calls across one layer boundary and the self time they took: a call's
// duration minus the decorated calls nested inside it.
struct CallStats {
  uint64_t calls = 0;
  int64_t ns = 0;

  void Add(const CallStats& other) {
    calls += other.calls;
    ns += other.ns;
  }
  double NsPerCall() const { return calls > 0 ? static_cast<double>(ns) / calls : 0.0; }
};

// Self-time bookkeeping shared by the decorators of one run. Decorated calls
// can nest (a Nest placement notifies observers of nest events), so each
// scope charges its layer only for the time its own children did not cover.
class CallTimer {
 public:
  class Scope {
   public:
    Scope(CallTimer& timer, CallStats& stats)
        : timer_(timer), stats_(stats), start_(NowNs()), outer_child_ns_(timer.child_ns_) {
      timer_.child_ns_ = 0;
      ++timer_.depth_;
    }
    ~Scope() {
      const int64_t total = NowNs() - start_;
      ++stats_.calls;
      stats_.ns += total - timer_.child_ns_;
      timer_.child_ns_ = outer_child_ns_ + total;
      if (--timer_.depth_ == 0) {
        timer_.outermost_ns_ += total;
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    CallTimer& timer_;
    CallStats& stats_;
    const int64_t start_;
    const int64_t outer_child_ns_;
  };

  // Total duration of decorated calls made while no other was open.
  int64_t outermost_ns() const { return outermost_ns_; }

 private:
  int depth_ = 0;
  int64_t child_ns_ = 0;
  int64_t outermost_ns_ = 0;
};

// What one traced single-machine run measured.
struct RunTrace {
  CallStats cfs_fork;
  CallStats cfs_wake;
  CallStats nest_fork;
  CallStats nest_wake;
  CallStats policy_hooks;  // every other policy virtual called while running
  CallStats governor_requests;
  CallStats observer_callbacks;

  // Spans, as [start, end) steady-clock nanoseconds.
  int64_t start_ns = 0;
  int64_t stack_built_ns = 0;  // hardware, policy, governor, kernel, observers, Start
  int64_t setup_done_ns = 0;   // Workload::Setup
  int64_t end_ns = 0;          // the Engine::Step pump

  int64_t pump_children_ns = 0;  // decorated calls made from inside the pump
  uint64_t pump_events = 0;

  int64_t stack_build_ns() const { return stack_built_ns - start_ns; }
  int64_t workload_setup_ns() const { return setup_done_ns - stack_built_ns; }
  int64_t pump_ns() const { return end_ns - setup_done_ns; }
  int64_t pump_self_ns() const { return pump_ns() - pump_children_ns; }
};

// RunExperiment for the configurations the benchmark's single-machine
// workloads use (CFS or Nest, no faults, capture or prediction extras), with
// every policy, governor and observer call counted and timed into `trace`.
// Throws std::runtime_error on anything else rather than run it differently.
nestsim::ExperimentResult TracedRunExperiment(const nestsim::ExperimentConfig& config,
                                              const nestsim::Workload& workload,
                                              RunTrace* trace);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_RUNNER_H_
