// The cluster serving layer: N machines behind a load balancer.
//
// RunClusterExperiment runs N MachineModels (src/core/machine_model.h) —
// each with its own HardwareModel, scheduler-policy instance, governor and
// Kernel — one per domain of a DomainGroup (src/sim/domain_group.h,
// docs/DOMAINS.md): every machine owns its own event queue, clock, and
// PELT/turbo/power state, and the only cross-machine traffic (request
// arrivals with their router decision, replica-quorum reaps) rides the
// group's coordinator timeline. Events execute in the group's canonical
// (timestamp, domain id, seq) order, so the whole fleet is bit-reproducible
// from one seed. The runner streams an open-loop RequestWorkload's traffic
// into the fleet one arrival instant ahead of the run (arrival_feed.h): each
// arrival asks the RequestRouter for a machine and is injected there through
// the scheduler's fork path, and end-to-end request latency (arrival to
// last-part exit) is measured fleet-wide. Everything
// else — the machine stack, its observers, the pump and the per-machine
// metrics — is RunExperiment's, through RunMachines.
//
// A 1-machine cluster with the "passthrough" router is digest-identical to
// running the same workload through RunExperiment: same stack, same Rng
// stream, same injection event order. The differential test in
// tests/cluster/ holds this equivalence.

#ifndef NESTSIM_SRC_CLUSTER_CLUSTER_H_
#define NESTSIM_SRC_CLUSTER_CLUSTER_H_

#include <string>

#include "src/core/experiment.h"
#include "src/core/workload.h"

namespace nestsim {

struct ClusterSpec {
  int machines = 2;
  std::string router = "round-robin";
};

// Runs one seeded cluster simulation. `workload` must be a RequestWorkload
// (the open-loop "requests" family); throws std::runtime_error otherwise,
// when cluster.router is unknown, when a multi-machine fleet is handed a
// decision-trace or oracle-recording sink (every machine would write the one
// shared sink), or on an invariant violation. The returned result aggregates
// machine metrics (energy and counters summed, underload averaged, makespan
// = fleet-wide last exit) and fills result.cluster with the serving metrics.
ExperimentResult RunClusterExperiment(const ClusterSpec& cluster, const ExperimentConfig& config,
                                      const Workload& workload);

}  // namespace nestsim

#endif  // NESTSIM_SRC_CLUSTER_CLUSTER_H_
