// Open-loop request/response workloads (the cluster serving layer's traffic).
//
// Unlike the closed-loop server tests (src/workloads/server.h), arrivals here
// are *open loop*: requests land at times drawn from a Poisson or bursty
// process regardless of how fast the machine drains them, so latency is
// measured against offered load instead of self-throttling with it. Each
// request is a short detached task (optionally with microservice-style
// fan-out parts) injected through the scheduler's fork path via
// Kernel::ScheduleInjection.
//
// A RequestStream draws the traffic one request at a time, in arrival order,
// from its own forked generator, so the same seed yields the same traffic
// whether it is replayed on one machine or routed across a cluster: neither
// the router's choice nor when the stream is read can perturb the draws. A
// cluster (src/cluster/arrival_feed.h) reads it one arrival instant ahead of
// the run. Workload::Setup schedules the whole plan (BuildPlan, a drain of
// the stream) before the run instead: on one engine an injection queued
// during the run would sort behind kernel events already queued for its
// instant, which reorders ties (docs/CLUSTER.md).

#ifndef NESTSIM_SRC_WORKLOADS_REQUESTS_H_
#define NESTSIM_SRC_WORKLOADS_REQUESTS_H_

#include <string>
#include <vector>

#include "src/core/workload.h"
#include "src/kernel/program.h"
#include "src/sim/random.h"
#include "src/sim/time.h"

namespace nestsim {

enum class ArrivalKind {
  kPoisson,  // homogeneous Poisson at rate_per_s
  kBursty,   // rate_per_s baseline with periodic bursts at rate * burst_factor
};

const char* ArrivalKindName(ArrivalKind kind);
bool ArrivalKindFromName(const std::string& name, ArrivalKind* out);

struct RequestSpec {
  std::string name = "requests";
  double rate_per_s = 200.0;  // mean offered load (baseline rate for bursty)
  ArrivalKind arrivals = ArrivalKind::kPoisson;
  double duration_s = 1.0;  // arrivals stop after this horizon

  // Bursty arrivals: every burst_every_s seconds the rate jumps to
  // rate_per_s * burst_factor for burst_len_s seconds.
  double burst_every_s = 0.5;
  double burst_len_s = 0.1;
  double burst_factor = 4.0;

  // Per-request service script: lognormal compute with optional I/O pause.
  double service_ms = 0.5;  // median
  double service_sigma = 0.5;
  double io_pause_ms = 0.0;  // 0 = none

  // Microservice fan-out: each request additionally spawns this many
  // sub-request parts (independent tasks; on a cluster the router may place
  // them on other machines). End-to-end latency covers all parts.
  int fanout = 0;
  double fanout_service_ms = 0.2;

  // Diurnal modulation: thin the arrival process by
  //   1 - depth/2 * (1 + cos(2*pi*t/period)), so the rate dips to
  // rate * (1 - depth) at t = 0 and recovers to the full rate at period/2.
  double diurnal_depth = 0.0;  // 0 disables, in [0, 1]
  double diurnal_period_s = 1.0;
};

// One injectable task: the parent request (part 0) or a fan-out sub.
struct RequestPart {
  SimTime arrival = 0;
  uint64_t request = 0;  // request index, 0-based
  int part = 0;          // 0 = parent, 1..fanout = subs
  ProgramPtr program;
  std::string name;
};

struct RequestPlan {
  std::vector<RequestPart> parts;  // arrival order (request-major)
  uint64_t requests = 0;           // parent count (offered load)
};

// The traffic trace as a generator: each Next() draws one request's parts.
// Draining a stream makes exactly the draws BuildPlan makes, in the same
// order, because BuildPlan is that drain.
class RequestStream {
 public:
  // Draws from `rng`, which must outlive the stream.
  RequestStream(RequestSpec spec, Rng* rng);

  // Appends the next request's parts (the parent, then its fan-out subs) to
  // `out` and returns true, or returns false once the trace is exhausted.
  bool Next(std::vector<RequestPart>* out);

  // Requests drawn so far; the offered load once Next() returned false.
  uint64_t requests() const { return requests_; }

 private:
  RequestSpec spec_;
  Rng* rng_;
  double peak_rate_;
  double t_ = 0.0;  // seconds: the last candidate arrival
  bool done_;
  uint64_t requests_ = 0;
};

class RequestWorkload : public Workload {
 public:
  explicit RequestWorkload(RequestSpec spec) : spec_(std::move(spec)) {}

  std::string name() const override { return "requests-" + spec_.name; }

  // Single-machine path: replays the plan onto one kernel. Draws exactly one
  // Fork() from `rng`, like every other workload's Setup.
  void Setup(Kernel& kernel, Rng& rng) const override;

  // Draws the whole traffic trace by draining a RequestStream on `rng`.
  // Setup replays it; the cluster runner reads the same stream lazily.
  RequestPlan BuildPlan(Rng& rng) const;

  const RequestSpec& spec() const { return spec_; }

 private:
  RequestSpec spec_;
};

}  // namespace nestsim

#endif  // NESTSIM_SRC_WORKLOADS_REQUESTS_H_
