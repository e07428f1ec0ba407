// Simulation-wide invariant sweeps: run a mixed workload on every machine
// under every scheduler and validate structural invariants at every
// scheduling event. These are the "nothing is ever silently corrupt"
// guarantees the rest of the test suite builds on.

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <set>

#include "src/cfs/cfs_policy.h"
#include "src/governors/governors.h"
#include "src/metrics/stats.h"
#include "src/nest/nest_policy.h"
#include "src/nest/nest_predict_policy.h"
#include "src/smove/smove_policy.h"
#include "src/core/experiment.h"
#include "src/workloads/dacapo.h"

namespace nestsim {
namespace {

class InvariantObserver : public KernelObserver {
 public:
  InvariantObserver(Kernel* kernel, HardwareModel* hw, NestPolicy* nest)
      : kernel_(kernel), hw_(hw), nest_(nest) {}

  void OnContextSwitch(SimTime now, int cpu, const Task* prev, const Task* next) override {
    (void)prev;
    ++checks_;
    // The running task must not also be queued.
    if (next != nullptr) {
      ASSERT_FALSE(kernel_->rq(cpu).Queued(next)) << "curr is queued, cpu " << cpu;
      ASSERT_EQ(next->state, TaskState::kRunning);
      ASSERT_EQ(next->cpu, cpu);
    }
    CheckGlobal(now);
  }

  void OnTick(SimTime now) override { CheckGlobal(now); }

  int64_t checks() const { return checks_; }

 private:
  void CheckGlobal(SimTime now) {
    (void)now;
    // Runnable counter matches reality.
    int runnable = 0;
    for (const auto& task : kernel_->tasks()) {
      switch (task->state) {
        case TaskState::kRunnable:
        case TaskState::kRunning:
        case TaskState::kPlacing:
          ++runnable;
          break;
        default:
          break;
      }
    }
    ASSERT_EQ(runnable, kernel_->runnable_tasks());

    // Frequencies stay within the machine's physical envelope.
    const MachineSpec& spec = hw_->spec();
    for (int cpu = 0; cpu < kernel_->topology().num_cpus(); ++cpu) {
      const double f = hw_->FreqGhz(cpu);
      ASSERT_GE(f, spec.min_freq_ghz - 1e-9);
      ASSERT_LE(f, spec.turbo.MaxTurboGhz() + 1e-9);
    }

    // Nest-specific: nests disjoint, reserve bounded.
    if (nest_ != nullptr) {
      int reserve = 0;
      for (int cpu = 0; cpu < kernel_->topology().num_cpus(); ++cpu) {
        ASSERT_FALSE(nest_->InPrimary(cpu) && nest_->InReserve(cpu));
        reserve += nest_->InReserve(cpu) ? 1 : 0;
      }
      ASSERT_EQ(reserve, nest_->ReserveSize());
      ASSERT_LE(reserve, nest_->params().r_max);
    }
  }

  Kernel* kernel_;
  HardwareModel* hw_;
  NestPolicy* nest_;
  int64_t checks_ = 0;
};

struct Case {
  std::string machine;
  SchedulerKind scheduler;
};

// gtest prints the parameter into every test's listing, and
// gtest_discover_tests copies that into the ctest name. Without this the
// listing is the struct's raw bytes, a heap pointer among them, so the names
// differed between builds.
void PrintTo(const Case& c, std::ostream* os) {
  *os << c.machine << "/" << SchedulerKindKey(c.scheduler);
}

class InvariantSweep : public ::testing::TestWithParam<Case> {};

TEST_P(InvariantSweep, HoldsThroughoutABusyRun) {
  const Case& c = GetParam();
  Engine engine;
  HardwareModel hw(&engine, MachineByName(c.machine));
  std::unique_ptr<SchedulerPolicy> policy;
  NestPolicy* nest = nullptr;
  switch (c.scheduler) {
    case SchedulerKind::kCfs:
      policy = std::make_unique<CfsPolicy>();
      break;
    case SchedulerKind::kNest: {
      auto owned = std::make_unique<NestPolicy>();
      nest = owned.get();
      policy = std::move(owned);
      break;
    }
    case SchedulerKind::kSmove:
      policy = std::make_unique<SmovePolicy>();
      break;
    case SchedulerKind::kNestCache: {
      auto owned = std::make_unique<NestCachePolicy>(NestParams{}, NestCacheParams{});
      nest = owned.get();
      policy = std::move(owned);
      break;
    }
    case SchedulerKind::kNestPredict: {
      // Model-less: the fallback path is plain Nest, so the nest invariants
      // apply unchanged.
      auto owned = std::make_unique<NestPredictPolicy>(NestParams{}, nullptr);
      nest = owned.get();
      policy = std::move(owned);
      break;
    }
    default:
      FAIL() << "scheduler kind not wired into the sweep";
  }
  SchedutilGovernor governor;
  Kernel kernel(&engine, &hw, policy.get(), &governor);
  InvariantObserver observer(&kernel, &hw, nest);
  kernel.AddObserver(&observer);
  kernel.Start();

  // A churny workload: fork/exit, sleeps, lock handoffs, gang wakes.
  DacapoSpec spec = DacapoWorkload::AppSpec("tradebeans");
  spec.churn_batches = 10;
  DacapoWorkload workload(spec);
  Rng rng(13);
  workload.Setup(kernel, rng);
  while (kernel.live_tasks() > 0 && engine.Now() < 30 * kSecond) {
    ASSERT_TRUE(engine.Step());
  }
  EXPECT_EQ(kernel.live_tasks(), 0);
  EXPECT_GT(observer.checks(), 500);

  // Energy is finite and positive; the accounting never went backwards.
  const double joules = hw.EnergyJoules();
  EXPECT_GT(joules, 0.0);
  EXPECT_LT(joules, 1e7);
}

std::vector<Case> Cases() {
  std::vector<Case> cases;
  for (const MachineSpec& m : AllMachines()) {
    for (SchedulerKind kind : {SchedulerKind::kCfs, SchedulerKind::kNest, SchedulerKind::kSmove,
                               SchedulerKind::kNestCache, SchedulerKind::kNestPredict}) {
      cases.push_back({m.name, kind});
    }
  }
  return cases;
}

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  std::string name = info.param.machine + "_" + SchedulerKindName(info.param.scheduler);
  for (char& ch : name) {
    if (ch == '-') {
      ch = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllMachinesAllSchedulers, InvariantSweep, ::testing::ValuesIn(Cases()),
                         CaseName);

}  // namespace
}  // namespace nestsim
