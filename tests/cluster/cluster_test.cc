// Cluster serving layer (src/cluster/): the passthrough differential — a
// 1-machine cluster must reproduce the single-machine RunExperiment result
// exactly, since both drivers run the same MachineModel through RunMachines
// — plus router behaviour, serving metrics, and determinism.

#include "src/cluster/cluster.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "src/cluster/router.h"
#include "src/core/machine_model.h"
#include "src/obs/sched_counters.h"
#include "src/predict/decision_trace.h"
#include "src/predict/oracle.h"
#include "src/workloads/requests.h"

namespace nestsim {
namespace {

RequestSpec SmallTraffic() {
  RequestSpec spec;
  spec.name = "test";
  spec.rate_per_s = 400.0;
  spec.duration_s = 0.2;
  spec.service_ms = 0.5;
  spec.service_sigma = 0.4;
  return spec;
}

ExperimentConfig SmallConfig(SchedulerKind scheduler) {
  ExperimentConfig config;
  config.machine = "amd-4650g-1s";
  config.scheduler = scheduler;
  config.seed = 5;
  return config;
}

// Every field the golden baselines and the paper tables read, compared
// exactly. The counters compare as their full JSON rendering, not just the
// digest, so a mismatch names the counter that moved.
void ExpectSameResult(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.hit_time_limit, b.hit_time_limit);
  EXPECT_EQ(a.energy_joules, b.energy_joules);
  EXPECT_EQ(a.underload_per_s, b.underload_per_s);
  EXPECT_EQ(a.context_switches, b.context_switches);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.tasks_created, b.tasks_created);
  EXPECT_EQ(SchedCountersJson(a.counters), SchedCountersJson(b.counters));
  EXPECT_EQ(a.freq_hist.edges, b.freq_hist.edges);
  EXPECT_EQ(a.freq_hist.seconds, b.freq_hist.seconds);
  EXPECT_EQ(a.cpus_used, b.cpus_used);
  EXPECT_EQ(a.tag_makespan, b.tag_makespan);
  EXPECT_EQ(a.p50_wakeup_latency_us, b.p50_wakeup_latency_us);
  EXPECT_EQ(a.p99_wakeup_latency_us, b.p99_wakeup_latency_us);
  EXPECT_EQ(a.resilience.tasks_killed, b.resilience.tasks_killed);
  EXPECT_EQ(a.resilience.replicas_reaped, b.resilience.replicas_reaped);
  EXPECT_EQ(a.resilience.work_lost_ms, b.resilience.work_lost_ms);
  EXPECT_EQ(a.resilience.wasted_replica_ms, b.resilience.wasted_replica_ms);
  EXPECT_EQ(a.resilience.evacuations, b.resilience.evacuations);
  EXPECT_EQ(a.resilience.mean_evac_latency_us, b.resilience.mean_evac_latency_us);
  EXPECT_EQ(a.resilience.max_evac_latency_us, b.resilience.max_evac_latency_us);
  EXPECT_EQ(a.resilience.requests_failed, b.resilience.requests_failed);
  EXPECT_EQ(a.resilience.requests_degraded, b.resilience.requests_degraded);
}

void ExpectPassthroughIdentical(const ExperimentConfig& config, const Workload& workload) {
  const ExperimentResult single = RunExperiment(config, workload);
  const ExperimentResult fleet =
      RunClusterExperiment(ClusterSpec{1, "passthrough"}, config, workload);
  ExpectSameResult(single, fleet);
  // The cluster path additionally reports serving metrics.
  EXPECT_EQ(single.cluster.num_machines, 0);
  EXPECT_EQ(fleet.cluster.num_machines, 1);
  EXPECT_GT(fleet.cluster.requests_offered, 0u);
}

TEST(ClusterDifferentialTest, PassthroughSingleMachineIsDigestIdentical) {
  const RequestWorkload workload(SmallTraffic());
  for (const SchedulerKind scheduler :
       {SchedulerKind::kCfs, SchedulerKind::kNest, SchedulerKind::kSmove}) {
    SCOPED_TRACE(SchedulerKindKey(scheduler));
    ExpectPassthroughIdentical(SmallConfig(scheduler), workload);
    const ExperimentResult fleet = RunClusterExperiment(ClusterSpec{1, "passthrough"},
                                                        SmallConfig(scheduler), workload);
    EXPECT_EQ(fleet.cluster.requests_completed, fleet.cluster.requests_offered);
  }
}

// The optional observers hold the identity too: recorded wakeup latencies,
// and core kills whose evacuations feed the resilience block.
TEST(ClusterDifferentialTest, PassthroughWithLatencyIsDigestIdentical) {
  RequestSpec spec = SmallTraffic();
  spec.io_pause_ms = 0.2;  // parts block once, so they have wakeups to sample
  const RequestWorkload workload(spec);
  ExperimentConfig config = SmallConfig(SchedulerKind::kNest);
  config.record_latency = true;
  ExpectPassthroughIdentical(config, workload);
  EXPECT_GT(RunExperiment(config, workload).p99_wakeup_latency_us, 0.0);
}

TEST(ClusterDifferentialTest, PassthroughWithCoreKillsIsDigestIdentical) {
  // Busy enough that a killed core usually has work to evacuate.
  RequestSpec spec = SmallTraffic();
  spec.rate_per_s = 4000.0;
  spec.service_ms = 2.0;
  spec.duration_s = 0.1;
  const RequestWorkload workload(spec);
  ExperimentConfig config = SmallConfig(SchedulerKind::kCfs);
  config.fault.core_fail_rate_per_s = 100.0;
  config.fault.core_downtime_ms = 5.0;
  ExpectPassthroughIdentical(config, workload);
  const ExperimentResult single = RunExperiment(config, workload);
  EXPECT_GT(single.counters.faults_injected, 0u);
  EXPECT_GT(single.resilience.evacuations, 0u);
}

TEST(ClusterDifferentialTest, ClusterRunIsRepeatable) {
  const RequestWorkload workload(SmallTraffic());
  const ExperimentConfig config = SmallConfig(SchedulerKind::kNest);
  const ClusterSpec cluster{3, "least-loaded"};
  const ExperimentResult a = RunClusterExperiment(cluster, config, workload);
  const ExperimentResult b = RunClusterExperiment(cluster, config, workload);
  ExpectSameResult(a, b);
  EXPECT_DOUBLE_EQ(a.cluster.p99_ms, b.cluster.p99_ms);
  ASSERT_EQ(a.cluster.machines.size(), b.cluster.machines.size());
  for (size_t m = 0; m < a.cluster.machines.size(); ++m) {
    EXPECT_EQ(a.cluster.machines[m].requests_routed, b.cluster.machines[m].requests_routed);
  }
}

TEST(ClusterRunTest, RoundRobinSpreadsArrivalsEvenly) {
  const RequestWorkload workload(SmallTraffic());
  const ExperimentResult r = RunClusterExperiment(
      ClusterSpec{2, "round-robin"}, SmallConfig(SchedulerKind::kCfs), workload);
  ASSERT_EQ(r.cluster.machines.size(), 2u);
  const uint64_t m0 = r.cluster.machines[0].requests_routed;
  const uint64_t m1 = r.cluster.machines[1].requests_routed;
  EXPECT_EQ(m0 + m1, r.cluster.requests_offered);  // fanout 0: one part each
  EXPECT_LE(m0 > m1 ? m0 - m1 : m1 - m0, 1u);      // strict alternation
}

TEST(ClusterRunTest, ServingMetricsAreCoherent) {
  RequestSpec spec = SmallTraffic();
  spec.fanout = 2;
  spec.io_pause_ms = 0.2;
  const RequestWorkload workload(spec);
  const ExperimentResult r = RunClusterExperiment(
      ClusterSpec{2, "round-robin"}, SmallConfig(SchedulerKind::kNest), workload);
  const ClusterStats& c = r.cluster;
  EXPECT_EQ(c.num_machines, 2);
  EXPECT_EQ(c.router, "round-robin");
  EXPECT_GT(c.requests_offered, 0u);
  EXPECT_EQ(c.requests_completed, c.requests_offered);  // run drains fully
  // Percentiles are nondecreasing and bounded by the max.
  EXPECT_GT(c.p50_ms, 0.0);
  EXPECT_LE(c.p50_ms, c.p99_ms);
  EXPECT_LE(c.p99_ms, c.p999_ms);
  EXPECT_LE(c.p999_ms, c.max_ms);
  // Queueing + service breakdown: both sides positive, each below the
  // end-to-end mean (parts run concurrently, so they need not sum to it).
  EXPECT_GT(c.mean_service_ms, 0.0);
  EXPECT_GE(c.mean_queue_ms, 0.0);
  // With fanout 2 every request contributes three routed parts.
  uint64_t routed = 0;
  for (const ClusterMachineStats& m : c.machines) {
    routed += m.requests_routed;
    EXPECT_GE(m.utilisation, 0.0);
    EXPECT_LE(m.utilisation, 1.0);
  }
  EXPECT_EQ(routed, c.requests_offered * 3);
}

// Arrivals are drawn as the run reaches them, so a run the time limit stops
// early has not drawn the whole trace; it must still offer all of it.
TEST(ClusterRunTest, TimeLimitedRunOffersTheWholeTrace) {
  RequestSpec spec = SmallTraffic();
  spec.fanout = 2;
  const RequestWorkload workload(spec);
  ExperimentConfig config = SmallConfig(SchedulerKind::kNest);
  config.time_limit = Milliseconds(50);  // a quarter of the 200 ms trace
  const ExperimentResult r =
      RunClusterExperiment(ClusterSpec{2, "round-robin"}, config, workload);

  Rng rng(config.seed);
  Rng wl_rng = rng.Fork();  // the stream the runner draws from
  const RequestPlan plan = workload.BuildPlan(wl_rng);
  ASSERT_GT(plan.parts.back().arrival, config.time_limit);
  EXPECT_TRUE(r.hit_time_limit);
  EXPECT_EQ(r.cluster.requests_offered, plan.requests);
  EXPECT_GT(r.cluster.requests_completed, 0u);
  EXPECT_LT(r.cluster.requests_completed, r.cluster.requests_offered);
}

// A time limit that falls on an arrival instant ends the run with that
// instant's first part, the first event at or past the limit: its task is
// created and placed, and no later part is. Both executors agree.
TEST(ClusterRunTest, AnArrivalAtTheTimeLimitEndsTheRunWithItsTask) {
  RequestSpec spec = SmallTraffic();
  spec.fanout = 2;
  const RequestWorkload workload(spec);
  ExperimentConfig config = SmallConfig(SchedulerKind::kNest);
  Rng rng(config.seed);
  Rng wl_rng = rng.Fork();
  const RequestPlan plan = workload.BuildPlan(wl_rng);
  size_t first = plan.parts.size() / 2;
  while (plan.parts[first].part != 0) {
    ++first;  // an instant opens with its request's parent
  }
  config.time_limit = plan.parts[first].arrival;
  for (const int workers : {0, 2}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    DomainGroup::SetWorkersForTesting(workers);
    const ExperimentResult r =
        RunClusterExperiment(ClusterSpec{2, "round-robin"}, config, workload);
    DomainGroup::SetWorkersForTesting(-1);
    EXPECT_TRUE(r.hit_time_limit);
    EXPECT_EQ(r.tasks_created, static_cast<int>(first) + 1);
  }
}

// A quorum of 2 out of 3 copies: a part completes at its second exit, and the
// third copy, if still running, is reaped. Bursty load on one machine makes
// requests queue, so the copies start apart and stragglers are reaped.
TEST(ClusterRunTest, QuorumOfTwoOutOfThreeReapsAtMostOneCopyPerPart) {
  RequestSpec spec = SmallTraffic();
  spec.rate_per_s = 4000.0;
  spec.service_ms = 1.0;
  spec.arrivals = ArrivalKind::kBursty;
  spec.duration_s = 0.1;
  const RequestWorkload workload(spec);
  ExperimentConfig config = SmallConfig(SchedulerKind::kCfs);
  config.fault.replicas = 3;
  config.fault.quorum = 2;
  const ExperimentResult r =
      RunClusterExperiment(ClusterSpec{1, "passthrough"}, config, workload);
  EXPECT_GT(r.counters.replica_quorum_joins, 0u);
  EXPECT_GT(r.resilience.replicas_reaped, 0u);
  // Each part has one loser at most.
  EXPECT_LE(r.resilience.replicas_reaped, r.counters.replica_quorum_joins);
  // fanout 0: one part per request, each injected as three copies.
  EXPECT_EQ(r.tasks_created, static_cast<int>(3 * r.cluster.requests_offered));
  EXPECT_EQ(r.cluster.requests_completed, r.cluster.requests_offered);
}

TEST(ClusterRunTest, UnknownRouterThrows) {
  const RequestWorkload workload(SmallTraffic());
  EXPECT_THROW(RunClusterExperiment(ClusterSpec{2, "no-such-router"},
                                    SmallConfig(SchedulerKind::kCfs), workload),
               std::runtime_error);
}

// Every machine of a fleet would append to the one shared sink — from
// several threads under a worker pool — so a multi-machine run refuses the
// prediction recorders instead of silently dropping them.
TEST(ClusterRunTest, MultiMachineRejectsSharedRecorderSinks) {
  const RequestWorkload workload(SmallTraffic());
  ExperimentConfig traced = SmallConfig(SchedulerKind::kNest);
  traced.predict.decision_trace = std::make_shared<DecisionTrace>();
  EXPECT_THROW(RunClusterExperiment(ClusterSpec{2, "round-robin"}, traced, workload),
               std::runtime_error);
  ExperimentConfig recording = SmallConfig(SchedulerKind::kNest);
  recording.predict.oracle_record_plan = std::make_shared<OraclePlan>();
  EXPECT_THROW(RunClusterExperiment(ClusterSpec{2, "round-robin"}, recording, workload),
               std::runtime_error);
  // One machine is one writer.
  EXPECT_NO_THROW(RunClusterExperiment(ClusterSpec{1, "passthrough"}, traced, workload));
}

TEST(ClusterRunTest, NonRequestWorkloadThrows) {
  // Any closed-loop workload must be rejected: the cluster runner owns the
  // injection schedule and cannot replay arbitrary Setup() side effects.
  class NotRequests : public Workload {
   public:
    std::string name() const override { return "not-requests"; }
    void Setup(Kernel&, Rng&) const override {}
  };
  EXPECT_THROW(RunClusterExperiment(ClusterSpec{1, "passthrough"},
                                    SmallConfig(SchedulerKind::kCfs), NotRequests()),
               std::runtime_error);
}

TEST(RouterTest, RegistryCoversEveryName) {
  const std::vector<std::string> names = RouterNames();
  EXPECT_EQ(names.size(), 4u);
  for (const std::string& name : names) {
    const auto router = MakeRouter(name);
    ASSERT_NE(router, nullptr) << name;
    EXPECT_EQ(router->name(), name);
  }
  EXPECT_EQ(MakeRouter("no-such-router"), nullptr);
}

TEST(RouterTest, LeastLoadedPrefersTheIdlerMachine) {
  DomainGroup group(2);
  const ExperimentConfig config = SmallConfig(SchedulerKind::kCfs);
  MachineModel m0(&group.domain(0), config, 0);
  MachineModel m1(&group.domain(1), config, 1);
  m0.kernel.Start();
  m1.kernel.Start();
  const std::vector<Kernel*> kernels = {&m0.kernel, &m1.kernel};
  const std::vector<HardwareModel*> hardware = {&m0.hw, &m1.hw};

  const auto router = MakeRouter("least-loaded");
  // Both idle: lowest index wins.
  EXPECT_EQ(router->Route(kernels, hardware), 0);

  // Park a runnable task on machine 0; the router must now pick machine 1.
  ProgramBuilder builder("busy");
  builder.ComputeMs(5.0);
  m0.kernel.InjectTask(builder.Build(), "busy", /*tag=*/0);
  EXPECT_GT(m0.kernel.runnable_tasks(), 0);
  EXPECT_EQ(router->Route(kernels, hardware), 1);
}

// In a window the coordinator routes a whole arrival instant before its
// injections fire, so a queued injection counts as the runnable task it is
// about to create: each routing sees the loads injecting every earlier copy
// right away gives. Firing an injection moves its load from pending to
// runnable and leaves the choice unchanged, and the injection hook receives
// the task with its cookie.
TEST(RouterTest, LeastLoadedCountsQueuedInjectionsAsRunnable) {
  DomainGroup group(2);
  const ExperimentConfig config = SmallConfig(SchedulerKind::kCfs);
  MachineModel m0(&group.domain(0), config, 0);
  MachineModel m1(&group.domain(1), config, 1);
  m0.kernel.Start();
  m1.kernel.Start();
  const std::vector<Kernel*> kernels = {&m0.kernel, &m1.kernel};
  const std::vector<HardwareModel*> hardware = {&m0.hw, &m1.hw};
  const auto router = MakeRouter("least-loaded");
  ProgramBuilder builder("queued");
  builder.ComputeMs(5.0);
  const ProgramPtr program = builder.Build();

  m0.kernel.ScheduleInjection(0, program, "queued", /*tag=*/0, /*cookie=*/7);
  EXPECT_EQ(m0.kernel.runnable_tasks(), 0);
  EXPECT_EQ(m0.kernel.pending_injections(), 1);
  EXPECT_EQ(router->Route(kernels, hardware), 1);
  m1.kernel.ScheduleInjection(0, program, "queued", /*tag=*/0);
  EXPECT_EQ(router->Route(kernels, hardware), 0);  // one each: lowest index

  const Task* injected = nullptr;
  size_t cookie = 0;
  m0.kernel.set_injection_fn([&](Task* task, size_t c) {
    injected = task;
    cookie = c;
  });
  ASSERT_TRUE(group.domain(0).Step());  // the injection, at time 0
  ASSERT_NE(injected, nullptr);
  EXPECT_EQ(injected->name, "queued");
  EXPECT_EQ(cookie, 7u);
  EXPECT_EQ(m0.kernel.pending_injections(), 0);
  EXPECT_EQ(m0.kernel.runnable_tasks(), 1);
  EXPECT_EQ(router->Route(kernels, hardware), 0);
}

TEST(RequestPlanTest, PlanIsDeterministicAndOrdered) {
  const RequestWorkload workload(SmallTraffic());
  Rng rng_a(42), rng_b(42);
  const RequestPlan a = workload.BuildPlan(rng_a);
  const RequestPlan b = workload.BuildPlan(rng_b);
  ASSERT_EQ(a.parts.size(), b.parts.size());
  EXPECT_GT(a.requests, 0u);
  SimTime prev = 0;
  for (size_t i = 0; i < a.parts.size(); ++i) {
    EXPECT_EQ(a.parts[i].arrival, b.parts[i].arrival);
    EXPECT_EQ(a.parts[i].name, b.parts[i].name);
    EXPECT_GE(a.parts[i].arrival, prev);  // arrival order
    prev = a.parts[i].arrival;
  }
}

// Machine crashes with requests in flight (docs/FAULTS.md): the dead machine
// stops taking traffic, its in-flight work is killed and accounted as failed
// requests, and the fleet result stays bit-deterministic.
TEST(ClusterFaultTest, MachineCrashFailsOverInFlightRequests) {
  // Heavy enough traffic that a crash instant always finds live tasks to
  // kill; SmallTraffic leaves the machines idle almost all the time.
  RequestSpec spec = SmallTraffic();
  spec.rate_per_s = 4000.0;
  spec.service_ms = 2.0;
  spec.duration_s = 0.1;
  const RequestWorkload workload(spec);
  ExperimentConfig config = SmallConfig(SchedulerKind::kNest);
  config.fault.machine_fail_rate_per_s = 30.0;
  config.fault.machine_downtime_ms = 0.0;  // permanent: a crashed box stays dark
  const ClusterSpec cluster{2, "least-loaded"};
  const ExperimentResult a = RunClusterExperiment(cluster, config, workload);
  const ExperimentResult b = RunClusterExperiment(cluster, config, workload);
  ExpectSameResult(a, b);
  EXPECT_GT(a.counters.faults_injected, 0u);  // kMachineCrash counts as a fault
  EXPECT_GT(a.resilience.tasks_killed, 0u);
  EXPECT_GT(a.resilience.requests_failed, 0u);
  EXPECT_LT(a.cluster.requests_completed, a.cluster.requests_offered);
}

// Replication without faults: every part still completes (the quorum winner),
// losers are reaped as wasted — not failed — work, and the counters see one
// quorum join per reap opportunity.
TEST(ClusterFaultTest, ReplicaQuorumJoinsAndReapsTheLosers) {
  // Copies of a part share one pre-drawn program, so on idle machines both
  // exit at the same instant and the reap finds the loser already dead.
  // Saturate a single machine instead: queueing skews the copies' start
  // times, the earlier copy wins the quorum, and the straggler is reaped
  // mid-flight with runtime on the books.
  RequestSpec spec = SmallTraffic();
  spec.rate_per_s = 4000.0;
  spec.service_ms = 1.0;
  spec.arrivals = ArrivalKind::kBursty;
  spec.duration_s = 0.1;
  const RequestWorkload workload(spec);
  ExperimentConfig config = SmallConfig(SchedulerKind::kCfs);
  config.fault.replicas = 2;
  config.fault.quorum = 1;
  const ExperimentResult r =
      RunClusterExperiment(ClusterSpec{1, "passthrough"}, config, workload);
  EXPECT_GT(r.counters.replica_quorum_joins, 0u);
  EXPECT_GT(r.resilience.replicas_reaped, 0u);
  // A loser can exit on its own in the same instant the quorum lands, so
  // reaps can trail joins but never exceed them.
  EXPECT_GE(r.counters.replica_quorum_joins, r.resilience.replicas_reaped);
  EXPECT_EQ(r.cluster.requests_completed, r.cluster.requests_offered);
  EXPECT_EQ(r.resilience.requests_failed, 0u);
  EXPECT_GT(r.resilience.wasted_replica_ms, 0.0);
}

TEST(RequestPlanTest, BurstyOffersMoreThanPoissonAtSameBaseRate) {
  RequestSpec poisson = SmallTraffic();
  poisson.duration_s = 1.0;
  RequestSpec bursty = poisson;
  bursty.arrivals = ArrivalKind::kBursty;
  Rng rng_a(7), rng_b(7);
  const RequestPlan p = RequestWorkload(poisson).BuildPlan(rng_a);
  const RequestPlan b = RequestWorkload(bursty).BuildPlan(rng_b);
  EXPECT_GT(b.requests, p.requests);
}

}  // namespace
}  // namespace nestsim
