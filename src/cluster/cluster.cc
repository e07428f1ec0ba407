#include "src/cluster/cluster.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "src/cluster/arrival_feed.h"
#include "src/cluster/router.h"
#include "src/core/machine_model.h"
#include "src/metrics/latency.h"
#include "src/metrics/stats.h"
#include "src/workloads/requests.h"

namespace nestsim {

namespace {

// Progress of one injected request-part *copy* (parts map 1:1 to copies
// unless fault.replicas spreads each part across machines), shared between
// the per-machine trackers and the final report.
struct PartProgress {
  SimTime first_run = -1;  // first time the copy's task got a CPU
  SimTime exit = -1;       // task exit (stays -1 for killed/reaped copies)
  bool killed = false;     // a core/machine fault killed the copy
  bool dropped = false;    // no machine was alive to route the copy to
};

// Maps this machine's injected tids to plan copy indices and records when
// each copy first ran and when it exited or was killed by a fault. Purely
// observational; the optional exit hook is how the runner's replica-quorum
// bookkeeping learns about completions.
class RequestTracker : public KernelObserver {
 public:
  using ExitFn = std::function<void(size_t copy_index, SimTime now)>;

  explicit RequestTracker(std::vector<PartProgress>* progress) : progress_(progress) {}

  void set_exit_fn(ExitFn fn) { exit_fn_ = std::move(fn); }

  uint32_t InterestMask() const override {
    return kObsContextSwitch | kObsTaskExit | kObsFaultEvent;
  }

  // A kernel hands out tids 1, 2, 3, ... and every task on a fleet machine is
  // an injected copy, so a vector indexed by tid is dense.
  void Track(int tid, size_t copy_index) {
    const auto slot = static_cast<size_t>(tid);
    if (slot >= copy_by_tid_.size()) {
      copy_by_tid_.resize(slot + 1, kUntracked);
    }
    copy_by_tid_[slot] = copy_index;
  }

  void OnContextSwitch(SimTime now, int cpu, const Task* prev, const Task* next) override {
    (void)cpu;
    (void)prev;
    if (next == nullptr) {
      return;
    }
    const size_t copy = CopyOf(next->tid);
    if (copy != kUntracked && (*progress_)[copy].first_run < 0) {
      (*progress_)[copy].first_run = now;
    }
  }

  void OnTaskExit(SimTime now, const Task& task) override {
    const size_t copy = CopyOf(task.tid);
    if (copy != kUntracked) {
      (*progress_)[copy].exit = now;
      if (exit_fn_) {
        exit_fn_(copy, now);
      }
    }
  }

  void OnFaultEvent(SimTime now, FaultEventKind kind, int cpu, const Task* task) override {
    (void)now;
    (void)cpu;
    // Only fault kills mark a copy as lost; post-quorum reaping
    // (kReplicaReaped) is the success path, not degradation.
    if (kind != FaultEventKind::kTaskKilled || task == nullptr) {
      return;
    }
    const size_t copy = CopyOf(task->tid);
    if (copy != kUntracked) {
      (*progress_)[copy].killed = true;
    }
  }

 private:
  static constexpr size_t kUntracked = static_cast<size_t>(-1);

  size_t CopyOf(int tid) const {
    const auto slot = static_cast<size_t>(tid);
    return slot < copy_by_tid_.size() ? copy_by_tid_[slot] : kUntracked;
  }

  std::vector<PartProgress>* progress_;
  std::vector<size_t> copy_by_tid_;  // indexed by tid; kUntracked if not a copy
  ExitFn exit_fn_;
};

}  // namespace

ExperimentResult RunClusterExperiment(const ClusterSpec& cluster, const ExperimentConfig& config,
                                      const Workload& workload) {
  const auto* requests = dynamic_cast<const RequestWorkload*>(&workload);
  if (requests == nullptr) {
    throw std::runtime_error("cluster runs need a \"requests\" workload, got " + workload.name());
  }
  std::unique_ptr<RequestRouter> router = MakeRouter(cluster.router);
  if (router == nullptr) {
    throw std::runtime_error("unknown cluster router \"" + cluster.router + "\"");
  }
  if (cluster.machines < 1) {
    throw std::runtime_error("cluster needs at least one machine");
  }
  if (cluster.machines > 1 && (config.predict.decision_trace != nullptr ||
                               config.predict.oracle_record_plan != nullptr)) {
    // Every machine's recorder would append to the one shared sink.
    throw std::runtime_error(
        "a multi-machine cluster cannot record decision traces or oracle plans");
  }

  // One domain per machine plus the coordinator timeline for arrivals and
  // reaps (src/sim/domain_group.h), run in the canonical event order.
  const int n = cluster.machines;
  DomainGroup group(n);
  std::vector<std::unique_ptr<MachineModel>> machines;
  // Parallel per-machine views handed to routers.
  std::vector<Kernel*> kernels;
  std::vector<HardwareModel*> hardware;
  for (int m = 0; m < n; ++m) {
    machines.push_back(std::make_unique<MachineModel>(&group.domain(m), config, m));
    kernels.push_back(&machines.back()->kernel);
    hardware.push_back(&machines.back()->hw);
  }
  std::vector<PartProgress> progress;
  std::vector<std::unique_ptr<RequestTracker>> trackers;
  for (Kernel* kernel : kernels) {
    trackers.push_back(std::make_unique<RequestTracker>(&progress));
    kernel->AddObserver(trackers.back().get());
    kernel->Start();
  }

  // Same stream the single-machine Setup path uses: one Fork() off the seed.
  // The traffic is drawn from it as the run reaches each arrival instant.
  Rng rng(config.seed);
  Rng wl_rng = rng.Fork();
  RequestStream stream(requests->spec(), &wl_rng);
  // Each part is injected as `replicas` copies (1 unless configured); the
  // first `quorum` copies to exit win and the rest are reaped fleet-wide.
  const int replicas = std::max(1, config.fault.replicas);
  const int quorum = std::min(std::max(1, config.fault.quorum), replicas);

  const int cpus_per_machine = kernels[0]->topology().num_cpus();

  // The fault plan is drawn like the single-machine path's (DrawFaultPlan,
  // the second fork off the seed), so when the traffic is drawn changes
  // nothing. Each machine replays its own slice; whole-machine crashes are
  // handled here (kill every live task, mark the machine dead for the
  // router) because only the runner sees the fleet.
  std::vector<char> alive(static_cast<size_t>(n), 1);
  const FaultPlan fault_plan =
      DrawFaultPlan(config.fault, rng, n, cpus_per_machine, config.time_limit);
  std::vector<std::unique_ptr<FaultInjector>> injectors;
  if (config.fault.enabled()) {
    for (int m = 0; m < n; ++m) {
      // Each machine's slice of the plan replays on that machine's own
      // domain engine: crashes, repairs, and core faults are domain-local
      // events (only alive[], read by the coordinator's arrivals, leaks out,
      // and every domain clock is committed before each arrival).
      injectors.push_back(std::make_unique<FaultInjector>(
          &group.domain(m), kernels[static_cast<size_t>(m)], &fault_plan, m));
      injectors.back()->set_machine_event_fn([&kernels, &alive, m](SimTime now, bool fail) {
        (void)now;
        if (!fail) {
          alive[static_cast<size_t>(m)] = 1;  // repaired: routable again, empty
          return;
        }
        if (!alive[static_cast<size_t>(m)]) {
          return;
        }
        alive[static_cast<size_t>(m)] = 0;
        Kernel* kernel = kernels[static_cast<size_t>(m)];
        kernel->NotifyFaultEvent(FaultEventKind::kMachineCrash, -1, nullptr);
        for (const auto& task : kernel->tasks()) {
          kernel->KillTask(task.get());
        }
      });
      injectors.back()->Arm();
    }
  }

  // Replica-quorum bookkeeping (replicas > 1 only): when a part's quorum-th
  // copy exits, the losers are reaped in a same-time follow-up event (never
  // from inside the winner's exit path).
  struct CopyRef {
    Kernel* kernel = nullptr;
    Task* task = nullptr;
  };
  std::vector<CopyRef> copy_refs;
  std::vector<int> part_exits;
  std::vector<SimTime> part_quorum_exit;
  // Per-part state grows as parts fire, and after the run to every
  // scheduled part.
  auto grow_to = [&](size_t parts) {
    progress.resize(parts * static_cast<size_t>(replicas));
    if (replicas > 1) {
      copy_refs.resize(progress.size());
      part_exits.resize(parts, 0);
      part_quorum_exit.resize(parts, -1);
    }
  };
  // The reap is a cross-domain event (losing copies live on other machines),
  // so it rides the coordinator, scheduled from inside a domain's exit event
  // at the exit instant. Precondition for the canonical order: it fires after
  // every arrival at that instant, because the feed queued those while the
  // previous instant fired (arrival_feed.h), so they hold lower seqs.
  auto on_copy_exit = [&group, &copy_refs, &part_exits, &part_quorum_exit, replicas,
                       quorum](size_t copy, SimTime now) {
    const size_t part = copy / static_cast<size_t>(replicas);
    if (++part_exits[part] != quorum || part_quorum_exit[part] >= 0) {
      return;
    }
    part_quorum_exit[part] = now;
    // The winning copy's machine logs the quorum join, so its SchedCounters
    // count it.
    if (copy_refs[copy].kernel != nullptr) {
      copy_refs[copy].kernel->NotifyFaultEvent(FaultEventKind::kReplicaQuorumJoin, -1, nullptr);
    }
    group.ScheduleCoordinator(now, [&copy_refs, part, replicas] {
      for (int r = 0; r < replicas; ++r) {
        const CopyRef& ref = copy_refs[part * static_cast<size_t>(replicas) + static_cast<size_t>(r)];
        if (ref.task != nullptr && ref.task->state != TaskState::kDead) {
          ref.kernel->KillTask(ref.task, FaultEventKind::kReplicaReaped);
        }
      }
    });
  };
  if (replicas > 1) {
    for (auto& tracker : trackers) {
      tracker->set_exit_fn(on_copy_exit);
    }
  }

  // One coordinator event per part, fired in plan (arrival) order — the
  // same order Kernel::ScheduleInjection produces, so a 1-machine passthrough
  // cluster replays the exact single-machine event sequence. The feed queues
  // each arrival instant while the previous one fires. The router runs inside
  // the arrival event so load-aware policies see live state — every domain
  // clock is committed to the arrival instant before it fires; the traffic
  // comes from its own generator and cannot be perturbed. Dead machines are
  // failed over to the next alive one in index order; a copy with no alive
  // machine at all is dropped (and its request fails).
  //
  // The arrival only routes. Each copy's injection (task creation plus the
  // policy's fork placement) is queued on its machine's own domain at the
  // arrival instant, and the kernel's injection hook tracks the task it
  // creates. On the serial loop the injection fires right after its arrival
  // event (domains win timestamp ties), before the next part is routed. In
  // a window (docs/DOMAINS.md §4) the whole instant is routed first; the
  // least-loaded router counts pending injections as runnable, which is the
  // only effect of an injection a router reads at its own instant.
  std::vector<uint64_t> routed(static_cast<size_t>(n), 0);
  const int tag = requests->tag();
  auto on_injected = [&](int m, Task* task, size_t copy) {
    trackers[static_cast<size_t>(m)]->Track(task->tid, copy);
    if (replicas > 1) {
      copy_refs[copy] = CopyRef{kernels[static_cast<size_t>(m)], task};
    }
  };
  for (int m = 0; m < n; ++m) {
    kernels[static_cast<size_t>(m)]->set_injection_fn(
        [&on_injected, m](Task* task, size_t copy) { on_injected(m, task, copy); });
  }
  ArrivalFeed feed(&group, &stream, [&](size_t i, RequestPart& p) {
    grow_to(i + 1);
    for (int r = 0; r < replicas; ++r) {
      const size_t copy = i * static_cast<size_t>(replicas) + static_cast<size_t>(r);
      int m = router->Route(kernels, hardware);
      if (!alive[static_cast<size_t>(m)]) {
        const int first = m;
        do {
          m = m + 1 < n ? m + 1 : 0;
        } while (!alive[static_cast<size_t>(m)] && m != first);
        if (!alive[static_cast<size_t>(m)]) {
          progress[copy].dropped = true;
          continue;
        }
      }
      ++routed[static_cast<size_t>(m)];
      // The last copy takes the part's name and program; earlier ones copy.
      const bool last = r + 1 == replicas;
      std::string name = last ? std::move(p.name) : p.name;
      if (r > 0) {
        name += ".r" + std::to_string(r);
      }
      ProgramPtr program = last ? std::move(p.program) : p.program;
      Kernel* kernel = kernels[static_cast<size_t>(m)];
      if (p.arrival >= config.time_limit) {
        // The first event at or past the limit is the run's last
        // (DomainGroup::Run), so a queued injection would never fire: inject
        // inline, and the part that ends the run still creates its task.
        on_injected(m, kernel->InjectTask(std::move(program), std::move(name), tag), copy);
        continue;
      }
      kernel->ScheduleInjection(p.arrival, std::move(program), std::move(name), tag, copy);
    }
  });
  feed.Start();
  if (replicas <= 1 && config.kernel.placement_latency > 0) {
    // No domain event schedules a coordinator event (reaps need replicas),
    // pending arrivals keep fleet_live true, and an injection's enqueue
    // lands after its own instant, so the domains may run in windows between
    // arrival instants, drawing the next instant meanwhile.
    group.EnableWindows([&feed] { feed.DrawAhead(); });
  }

  auto fleet_live = [&] {
    if (feed.live()) {
      return true;
    }
    for (const Kernel* kernel : kernels) {
      if (kernel->live_tasks() > 0 || kernel->pending_injections() > 0) {
        return true;
      }
    }
    return false;
  };
  ExperimentResult result = RunMachines(config, &group, machines, fleet_live);
  const SimTime end = result.makespan;
  // A run cut short by the time limit or an abort still offered the whole
  // trace: draw the rest to count it. Parts scheduled but never fired keep
  // their empty progress.
  for (std::vector<RequestPart> rest; stream.Next(&rest);) {
    rest.clear();
  }
  grow_to(feed.parts_scheduled());

  // ---- Serving metrics. ----
  ClusterStats& stats = result.cluster;
  stats.num_machines = n;
  stats.router = router->name();
  stats.requests_offered = stream.requests();

  // A request completes when every part (parent + fan-out subs) exited — with
  // replicas, when every part reached its quorum. Requests never scheduled
  // have no record and, like scheduled ones that never ran, count as neither.
  // A request a fault touched (a copy killed or dropped) counts as *failed*
  // when it never completed and as *degraded* when the surviving copies
  // still completed it.
  LatencyDistribution e2e_ms;
  std::vector<double> queue_ms;
  std::vector<double> service_ms;
  const std::vector<RequestRecord>& records = feed.requests();
  for (size_t req = 0; req < records.size(); ++req) {
    const SimTime arrival = records[req].arrival;
    const size_t parts_end =
        req + 1 < records.size() ? records[req + 1].first_part : feed.parts_scheduled();
    bool complete = true;
    bool fault_touched = false;
    SimTime req_last_exit = 0;
    for (size_t i = records[req].first_part; i < parts_end; ++i) {
      SimTime part_exit = -1;
      for (int r = 0; r < replicas; ++r) {
        const PartProgress& p = progress[i * static_cast<size_t>(replicas) + static_cast<size_t>(r)];
        fault_touched = fault_touched || p.killed || p.dropped;
        if (p.exit >= 0 && p.first_run >= 0) {
          queue_ms.push_back(ToMilliseconds(p.first_run - arrival));
          service_ms.push_back(ToMilliseconds(p.exit - p.first_run));
        }
      }
      part_exit = replicas > 1 ? part_quorum_exit[i] : progress[i].exit;
      if (part_exit < 0) {
        complete = false;
      } else {
        req_last_exit = std::max(req_last_exit, part_exit);
      }
    }
    if (complete) {
      ++stats.requests_completed;
      e2e_ms.Add(ToMilliseconds(req_last_exit - arrival));
      if (fault_touched && config.fault.any()) {
        ++result.resilience.requests_degraded;
      }
    } else if (fault_touched && config.fault.any()) {
      ++result.resilience.requests_failed;
    }
  }
  stats.p50_ms = e2e_ms.PercentileAt(50.0);
  stats.p99_ms = e2e_ms.PercentileAt(99.0);
  stats.p999_ms = e2e_ms.PercentileAt(99.9);
  stats.mean_ms = e2e_ms.mean();
  stats.max_ms = e2e_ms.max();
  stats.mean_queue_ms = Mean(queue_ms);
  stats.mean_service_ms = Mean(service_ms);

  const double horizon_s = ToSeconds(end);
  for (int m = 0; m < n; ++m) {
    ClusterMachineStats ms;
    ms.requests_routed = routed[static_cast<size_t>(m)];
    if (horizon_s > 0.0 && cpus_per_machine > 0) {
      ms.utilisation = machines[static_cast<size_t>(m)]->BusySeconds(end) /
                       (static_cast<double>(cpus_per_machine) * horizon_s);
    }
    ms.underload_per_s = machines[static_cast<size_t>(m)]->UnderloadPerSecond(end);
    stats.machines.push_back(ms);
  }
  return result;
}

}  // namespace nestsim
