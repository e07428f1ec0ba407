// CfsPolicy::ForkPath reuses its previous descent when the instant, the
// parent CPU and Kernel::sched_gen() all match. These tests pin that the
// reuse is exact: every fork placement made through the CFS descent must
// equal what a cold CfsPolicy — one with no memo at all — picks at the same
// moment, including across run-queue changes between two forks at one
// instant. The cold descent only folds PELT signals the real descent already
// folded to this instant, so asking it does not perturb the run.

#include <gtest/gtest.h>

#include <memory>

#include "src/cfs/cfs_policy.h"
#include "src/governors/governors.h"
#include "src/nest/nest_policy.h"
#include "src/workloads/requests.h"
#include "tests/testing/test_machine.h"

namespace nestsim {
namespace {

// The CPU a cold descent picks from `parent`, after the kernel's redirect of
// an offline pick (PlaceTask's FallbackOnlineCpu: lowest online CPU).
int ColdForkCpu(Kernel& kernel, const Task& child, int parent) {
  CfsPolicy cold;
  cold.Attach(&kernel);
  const int cpu = cold.ForkPath(child, parent);
  if (kernel.CpuOnline(cpu)) {
    return cpu;
  }
  for (int c = 0; c < kernel.topology().num_cpus(); ++c) {
    if (kernel.CpuOnline(c)) {
      return c;
    }
  }
  return -1;
}

// Checks every fork placement that went through the CFS descent (CFS itself
// or Nest's fallback) against a cold descent, and counts how many of them
// repeated the previous check's instant and parent — the reuse candidates.
class ColdForkCheck : public KernelObserver {
 public:
  explicit ColdForkCheck(Kernel* kernel) : kernel_(kernel) {}

  uint32_t InterestMask() const override { return kObsTaskPlaced; }

  void OnTaskPlaced(SimTime now, const Task& task, int cpu, bool is_fork) override {
    if (!is_fork || (task.placement_path != PlacementPath::kCfsFork &&
                     task.placement_path != PlacementPath::kNestCfsFallback)) {
      return;
    }
    // Both fork entry points record the parent CPU as the child's prev_cpu.
    const int parent = task.prev_cpu;
    EXPECT_EQ(cpu, ColdForkCpu(*kernel_, task, parent))
        << "task " << task.name << " at t=" << now << " from cpu " << parent;
    if (now == last_now_ && parent == last_parent_) {
      ++same_instant;
    }
    last_now_ = now;
    last_parent_ = parent;
    ++checked;
  }

  int checked = 0;
  int same_instant = 0;

 private:
  Kernel* kernel_;
  SimTime last_now_ = -1;
  int last_parent_ = -1;
};

struct Stack {
  Stack(const MachineSpec& spec, std::unique_ptr<SchedulerPolicy> p)
      : hw(&engine, spec), policy(std::move(p)), kernel(&engine, &hw, policy.get(), &governor),
        check(&kernel) {
    kernel.AddObserver(&check);
    kernel.Start();
  }

  Engine engine;
  HardwareModel hw;
  std::unique_ptr<SchedulerPolicy> policy;
  SchedutilGovernor governor;
  Kernel kernel;
  ColdForkCheck check;
};

RequestSpec FanOutTraffic() {
  RequestSpec spec;
  spec.name = "fanout";
  spec.rate_per_s = 300.0;
  spec.duration_s = 0.15;
  spec.service_ms = 2.0;
  spec.service_sigma = 0.4;
  spec.fanout = 24;
  spec.fanout_service_ms = 1.5;
  return spec;
}

std::unique_ptr<SchedulerPolicy> MakePolicy(bool nest) {
  if (nest) {
    return std::make_unique<NestPolicy>();
  }
  return std::make_unique<CfsPolicy>();
}

TEST(CfsForkReuseTest, FanOutBurstsMatchColdDescent) {
  for (const bool nest : {false, true}) {
    Stack stack(MachineByName("intel-5218-2s"), MakePolicy(nest));
    Rng rng(7);
    RequestWorkload(FanOutTraffic()).Setup(stack.kernel, rng);
    stack.engine.RunUntil(300 * kMillisecond);
    SCOPED_TRACE(nest ? "nest" : "cfs");
    EXPECT_GT(stack.check.checked, 500);
    // A request's parts arrive together: most checks share the previous
    // one's instant and parent, which is where the descent is reused.
    EXPECT_GT(stack.check.same_instant, stack.check.checked / 2);
  }
}

// Deterministic same-instant sequences on a 2-socket, 4-core, 2-thread
// machine (socket 0 = CPUs 0-3 and their siblings 8-11). Each run-queue
// change below flips the descent's answer, so a generation that missed the
// change would hand back the stale CPU. Enqueues skip their dispatch, so a
// landing and the dispatch that normally follows it are separate changes.
struct DirectRig {
  DirectRig()
      : hw(&engine, FixedFreqMachine(2, 4, 2)), kernel(&engine, &hw, &cfs, &governor, Params()) {
    kernel.Start();
  }

  static Kernel::Params Params() {
    Kernel::Params params;
    params.test_skip_enqueue_dispatch_every = 1;
    return params;
  }

  static ProgramPtr Work() {
    ProgramBuilder b("work");
    b.Compute(1e9);
    return b.Build();
  }

  // The warm policy's pick, checked against a cold descent.
  int Fork(int parent) {
    const int cpu = cfs.ForkPath(child, parent);
    EXPECT_EQ(cpu, ColdForkCpu(kernel, child, parent)) << "parent " << parent;
    return cpu;
  }

  Engine engine;
  HardwareModel hw;
  CfsPolicy cfs;
  PerformanceGovernor governor;
  Kernel kernel;
  Task child;
};

TEST(CfsForkReuseTest, PlacementLandingBetweenForksAtOneInstant) {
  DirectRig rig;
  const SimTime t = 1 * kMillisecond;
  int a = -1;
  int b = -1;
  // Queued first, so it fires at `t` before the landing scheduled below; it
  // queues the second fork behind the landing.
  rig.engine.ScheduleAt(t, [&] {
    a = rig.Fork(0);
    rig.engine.ScheduleAt(t, [&] { b = rig.Fork(0); });
  });
  rig.engine.ScheduleAt(t - rig.kernel.params().placement_latency,
                        [&] { rig.kernel.InjectTask(DirectRig::Work(), "landing", 0); });
  rig.engine.RunUntil(t);
  // Idle machine: the parent CPU itself; once the landing occupies it, the
  // next CPU of its socket.
  EXPECT_EQ(a, 0);
  EXPECT_FALSE(rig.kernel.CpuIdle(0));
  EXPECT_EQ(b, 1);
}

TEST(CfsForkReuseTest, DispatchBetweenForksAtOneInstant) {
  DirectRig rig;
  rig.engine.RunUntil(1 * kMillisecond);
  // Socket 0: CPU 1 holds three queued tasks; socket 1: CPU 4 holds one.
  // Both sockets have 7 idle CPUs, so the loads decide: 32 * 3 placements +
  // 32 * 3 queued = 192 locally against 32 + 32 = 64 remotely, and
  // 64 + 96 (the stickiness margin) < 192 sends the fork to socket 1.
  for (int i = 0; i < 3; ++i) {
    rig.kernel.SpawnInitial(DirectRig::Work(), "queued", 0, 1);
  }
  rig.kernel.SpawnInitial(DirectRig::Work(), "queued", 0, 4);
  const int a = rig.Fork(0);
  EXPECT_EQ(rig.kernel.topology().SocketOf(a), 1);
  // Dispatching one of CPU 1's tasks takes 32 off socket 0's load: 160 is no
  // longer above 64 + 96, and the fork stays home.
  rig.kernel.KickIfIdle(1);
  ASSERT_EQ(rig.kernel.rq(1).QueuedCount(), 2);
  const int b = rig.Fork(0);
  EXPECT_EQ(rig.kernel.topology().SocketOf(b), 0);
}

TEST(CfsForkReuseTest, OtherParentAtOneInstantDescendsAfresh) {
  DirectRig rig;
  rig.engine.RunUntil(1 * kMillisecond);
  // Idle machine: each fork stays on its parent's CPU.
  EXPECT_EQ(rig.Fork(2), 2);
  EXPECT_EQ(rig.Fork(13), 13);
  EXPECT_EQ(rig.Fork(2), 2);
}

TEST(CfsForkReuseTest, OfflineAndOnlineBetweenForksAtOneInstant) {
  DirectRig rig;
  rig.engine.RunUntil(1 * kMillisecond);
  EXPECT_EQ(rig.Fork(2), 2);
  ASSERT_TRUE(rig.kernel.OfflineCpu(2));
  EXPECT_EQ(rig.Fork(2), 10);  // the sibling once CPU 2 stops being idle
  rig.kernel.OnlineCpu(2);
  EXPECT_EQ(rig.Fork(2), 2);
}

// Taking a core offline or back online zeroes its utilisation. The reset
// must reach a scan at the same instant: the previous scan's load for that
// CPU is stale.
TEST(CfsForkReuseTest, UtilisationResetBetweenForksAtOneInstant) {
  DirectRig rig;
  rig.engine.RunUntil(1 * kMillisecond);
  rig.kernel.rq(2).util().Set(rig.engine.Now(), 0.5);
  EXPECT_EQ(rig.Fork(2), 3);  // the loaded parent CPU loses to an idle one
  ASSERT_TRUE(rig.kernel.OfflineCpu(2));
  rig.kernel.OnlineCpu(2);
  EXPECT_EQ(rig.Fork(2), 2);  // with its history gone it wins again
}

}  // namespace
}  // namespace nestsim
