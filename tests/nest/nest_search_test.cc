// NestPolicy::SearchPrimary/SearchReserve walk the nests as CpuMasks. This
// pins them against the linear whole-machine scans they replaced, kept here
// as the reference model: same returned core, same compaction demotes, same
// nest events, on randomized nest, compaction, idle and claim states, from
// every anchor, with and without anchor_die_only.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/governors/governors.h"
#include "src/nest/nest_policy.h"
#include "src/sim/random.h"

namespace nestsim {
namespace {

using NestEvent = std::pair<NestEventKind, int>;

// Nest membership as plain per-CPU flags, plus the reference searches: the
// linear scans NestPolicy used before its nests became bitmasks.
struct NestModel {
  std::vector<char> primary;
  std::vector<char> reserve;
  std::vector<char> eligible;
  int reserve_size = 0;
  int r_max = 0;
  bool enable_reserve = true;
  std::vector<NestEvent> events;

  void AddToReserve(int cpu) {
    if (primary[cpu] || reserve[cpu] || !enable_reserve) {
      return;
    }
    if (reserve_size >= r_max) {
      events.emplace_back(NestEventKind::kReserveFull, cpu);
      return;
    }
    reserve[cpu] = 1;
    ++reserve_size;
    events.emplace_back(NestEventKind::kReserveAdd, cpu);
  }

  void Demote(int cpu) {
    primary[cpu] = 0;
    eligible[cpu] = 0;
    AddToReserve(cpu);
  }

  int SearchPrimary(const Kernel& kernel, int anchor, bool anchor_die_only) {
    const Topology& topo = kernel.topology();
    const int anchor_die = topo.SocketOf(anchor);
    const int num_cpus = topo.num_cpus();
    std::vector<int> offdie;
    for (int i = 0; i < num_cpus; ++i) {
      const int cpu = anchor + i < num_cpus ? anchor + i : anchor + i - num_cpus;
      if (topo.SocketOf(cpu) != anchor_die) {
        if (!anchor_die_only && primary[cpu]) {
          offdie.push_back(cpu);
        }
        continue;
      }
      if (!primary[cpu]) {
        continue;
      }
      if (eligible[cpu]) {
        events.emplace_back(NestEventKind::kCompact, cpu);
        Demote(cpu);
        continue;
      }
      if (kernel.CpuIdleUnclaimed(cpu)) {
        return cpu;
      }
    }
    for (int cpu : offdie) {
      if (!primary[cpu]) {
        continue;
      }
      if (eligible[cpu]) {
        events.emplace_back(NestEventKind::kCompact, cpu);
        Demote(cpu);
        continue;
      }
      if (kernel.CpuIdleUnclaimed(cpu)) {
        return cpu;
      }
    }
    return -1;
  }

  int SearchReserve(const Kernel& kernel, int anchor, bool anchor_die_only) const {
    if (!enable_reserve || reserve_size == 0) {
      return -1;
    }
    const Topology& topo = kernel.topology();
    const int anchor_die = topo.SocketOf(anchor);
    const int num_cpus = topo.num_cpus();
    const int fixed = kernel.root_cpu() >= 0 ? kernel.root_cpu() : 0;
    std::vector<int> offdie;
    for (int i = 0; i < num_cpus; ++i) {
      const int cpu = fixed + i < num_cpus ? fixed + i : fixed + i - num_cpus;
      if (!reserve[cpu]) {
        continue;
      }
      if (topo.SocketOf(cpu) != anchor_die) {
        if (!anchor_die_only) {
          offdie.push_back(cpu);
        }
        continue;
      }
      if (kernel.CpuIdleUnclaimed(cpu)) {
        return cpu;
      }
    }
    for (int cpu : offdie) {
      if (kernel.CpuIdleUnclaimed(cpu)) {
        return cpu;
      }
    }
    return -1;
  }
};

// Exposes the searches and lets a test install any membership state.
class NestProbe : public NestPolicy {
 public:
  using NestPolicy::SearchPrimary;
  using NestPolicy::SearchReserve;

  void Install(const NestModel& model) {
    const int n = static_cast<int>(cores_.size());
    for (int cpu = 0; cpu < n; ++cpu) {
      if (InPrimary(cpu)) {
        RemoveFromPrimary(cpu);
      }
      if (InReserve(cpu)) {
        RemoveFromReserve(cpu);
      }
    }
    params_.enable_reserve = true;
    params_.r_max = n;
    for (int cpu = 0; cpu < n; ++cpu) {
      if (model.primary[cpu]) {
        AddToPrimary(cpu);
      } else if (model.reserve[cpu]) {
        AddToReserve(cpu);
      }
      cores_[cpu].compaction_eligible = model.eligible[cpu] != 0;
    }
    params_.enable_reserve = model.enable_reserve;
    params_.r_max = model.r_max;
  }

  // The installed state read back into a model (events left empty).
  NestModel Read(const NestModel& like) const {
    NestModel out = like;
    out.events.clear();
    for (int cpu = 0; cpu < static_cast<int>(cores_.size()); ++cpu) {
      out.primary[cpu] = InPrimary(cpu);
      out.reserve[cpu] = InReserve(cpu);
      out.eligible[cpu] = CompactionEligible(cpu);
    }
    out.reserve_size = ReserveSize();
    return out;
  }
};

class NestEventLog : public KernelObserver {
 public:
  uint32_t InterestMask() const override { return kObsNestEvent; }
  void OnNestEvent(SimTime now, NestEventKind kind, int cpu) override {
    (void)now;
    events.emplace_back(kind, cpu);
  }
  std::vector<NestEvent> events;
};

struct SearchRig {
  SearchRig(const std::string& machine, int root, Rng& rng, double busy, double claimed)
      : hw(&engine, MachineByName(machine)), kernel(&engine, &hw, &nest, &governor) {
    kernel.AddObserver(&log);
    kernel.Start();
    ProgramBuilder tiny("root");
    tiny.Compute(1);
    kernel.SpawnInitial(tiny.Build(), "root", 0, root);  // fixes root_cpu()
    engine.RunUntil(kMillisecond);
    const int n = kernel.topology().num_cpus();
    for (int cpu = 0; cpu < n; ++cpu) {
      if (rng.NextBool(busy)) {
        ProgramBuilder hog("hog");
        hog.Compute(1e12);
        kernel.SpawnInitial(hog.Build(), "hog", 0, cpu);
      }
    }
    for (int cpu = 0; cpu < n; ++cpu) {
      if (rng.NextBool(claimed)) {
        kernel.TryClaimCpu(cpu);
      }
    }
  }

  Engine engine;
  HardwareModel hw;
  PerformanceGovernor governor;
  NestProbe nest;
  Kernel kernel;
  NestEventLog log;
};

NestModel RandomNest(int n, Rng& rng) {
  NestModel m;
  m.primary.assign(n, 0);
  m.reserve.assign(n, 0);
  m.eligible.assign(n, 0);
  const double p_primary = rng.NextDouble(0.0, 0.6);
  const double p_reserve = rng.NextDouble(0.0, 0.3);
  const double p_eligible = rng.NextDouble(0.0, 0.5);
  for (int cpu = 0; cpu < n; ++cpu) {
    if (rng.NextBool(p_primary)) {
      m.primary[cpu] = 1;
      m.eligible[cpu] = rng.NextBool(p_eligible);
    } else if (rng.NextBool(p_reserve)) {
      m.reserve[cpu] = 1;
      ++m.reserve_size;
    }
  }
  // Room for a few demotes, then kReserveFull.
  m.r_max = m.reserve_size + static_cast<int>(rng.NextBounded(4));
  m.enable_reserve = rng.NextBool(0.8);
  return m;
}

void ExpectSameState(const NestModel& want, const NestModel& got) {
  EXPECT_EQ(want.primary, got.primary);
  EXPECT_EQ(want.reserve, got.reserve);
  EXPECT_EQ(want.eligible, got.eligible);
  EXPECT_EQ(want.reserve_size, got.reserve_size);
}

// How much of the search space a comparison run covered.
struct Coverage {
  int hits = 0;           // searches that returned a core
  int wrapped_hits = 0;   // ... below the walk's start CPU
  int offdie_hits = 0;    // ... off the anchor's die
  int compactions = 0;
  int reserve_full = 0;

  void Count(const Kernel& kernel, int start, int anchor, int got) {
    if (got < 0) {
      return;
    }
    ++hits;
    wrapped_hits += got < start ? 1 : 0;
    offdie_hits += kernel.topology().SameSocket(got, anchor) ? 0 : 1;
  }
};

void CompareOnMachine(const std::string& machine, int trials, uint64_t seed, Coverage* cov) {
  Rng rng(seed);
  for (int trial = 0; trial < trials; ++trial) {
    const int n = MachineByName(machine).num_sockets *
                  MachineByName(machine).physical_cores_per_socket *
                  MachineByName(machine).threads_per_core;
    const int root = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(n)));
    SearchRig rig(machine, root, rng, rng.NextDouble(0.0, 0.8), rng.NextDouble(0.0, 0.2));
    const NestModel start = RandomNest(n, rng);
    for (int anchor = 0; anchor < n; ++anchor) {
      for (const bool die_only : {false, true}) {
        SCOPED_TRACE(machine + " trial " + std::to_string(trial) + " anchor " +
                     std::to_string(anchor) + (die_only ? " die-only" : ""));
        // Primary search: returned core, demotes (membership afterwards)
        // and the compaction/reserve events, in order.
        rig.nest.Install(start);
        rig.log.events.clear();
        NestModel want = start;
        const int want_primary = want.SearchPrimary(rig.kernel, anchor, die_only);
        ASSERT_EQ(rig.nest.SearchPrimary(anchor, die_only), want_primary);
        ExpectSameState(want, rig.nest.Read(start));
        EXPECT_EQ(rig.log.events, want.events);
        cov->Count(rig.kernel, anchor, anchor, want_primary);
        for (const NestEvent& event : want.events) {
          cov->compactions += event.first == NestEventKind::kCompact ? 1 : 0;
          cov->reserve_full += event.first == NestEventKind::kReserveFull ? 1 : 0;
        }

        // Reserve search: no side effects.
        rig.nest.Install(start);
        rig.log.events.clear();
        const int want_reserve = start.SearchReserve(rig.kernel, anchor, die_only);
        ASSERT_EQ(rig.nest.SearchReserve(anchor, die_only), want_reserve);
        ExpectSameState(start, rig.nest.Read(start));
        EXPECT_TRUE(rig.log.events.empty());
        cov->Count(rig.kernel, rig.kernel.root_cpu(), anchor, want_reserve);
      }
    }
  }
}

void ExpectCovered(const Coverage& cov) {
  EXPECT_GT(cov.hits, 100);
  EXPECT_GT(cov.wrapped_hits, 10);
  EXPECT_GT(cov.offdie_hits, 10);
  EXPECT_GT(cov.compactions, 100);
  EXPECT_GT(cov.reserve_full, 10);
}

TEST(NestSearchTest, MatchesLinearScanOnTwoSockets) {
  Coverage cov;
  CompareOnMachine("intel-5218-2s", 24, 3, &cov);
  ExpectCovered(cov);
}

TEST(NestSearchTest, MatchesLinearScanOnEightSockets) {
  Coverage cov;
  CompareOnMachine("intel-8153-8s", 6, 5, &cov);
  ExpectCovered(cov);
}

}  // namespace
}  // namespace nestsim
