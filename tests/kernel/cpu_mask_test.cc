#include "src/kernel/cpu_mask.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/hw/machine_spec.h"
#include "src/sim/random.h"

namespace nestsim {
namespace {

std::vector<int> Collect(const CpuMask& mask) {
  std::vector<int> out;
  for (int cpu : mask) {
    out.push_back(cpu);
  }
  return out;
}

TEST(CpuMaskTest, StartsEmpty) {
  CpuMask mask;
  EXPECT_TRUE(mask.Empty());
  EXPECT_FALSE(mask.Any());
  EXPECT_EQ(mask.Count(), 0);
  EXPECT_EQ(Collect(mask), std::vector<int>{});
}

TEST(CpuMaskTest, SetTestClearAtWordBoundaries) {
  // The mask is four 64-bit words; exercise the first/last bit of each word.
  CpuMask mask;
  const std::vector<int> boundary = {0, 63, 64, 127, 128, 191, 192, 255};
  for (int cpu : boundary) {
    EXPECT_FALSE(mask.Test(cpu));
    mask.Set(cpu);
    EXPECT_TRUE(mask.Test(cpu)) << "cpu " << cpu;
  }
  EXPECT_EQ(mask.Count(), static_cast<int>(boundary.size()));
  EXPECT_EQ(Collect(mask), boundary);  // ascending order across words
  for (int cpu : boundary) {
    mask.Clear(cpu);
    EXPECT_FALSE(mask.Test(cpu)) << "cpu " << cpu;
  }
  EXPECT_TRUE(mask.Empty());
}

TEST(CpuMaskTest, SetIsIdempotent) {
  CpuMask mask;
  mask.Set(5);
  mask.Set(5);
  EXPECT_EQ(mask.Count(), 1);
  mask.Clear(5);
  EXPECT_TRUE(mask.Empty());
  mask.Clear(5);  // clearing a clear bit is a no-op
  EXPECT_TRUE(mask.Empty());
}

TEST(CpuMaskTest, AssignMatchesSetAndClear) {
  CpuMask mask;
  mask.Assign(42, true);
  EXPECT_TRUE(mask.Test(42));
  mask.Assign(42, false);
  EXPECT_FALSE(mask.Test(42));
  EXPECT_TRUE(mask.Empty());
}

TEST(CpuMaskTest, IterationSkipsEmptyWords) {
  CpuMask mask;
  mask.Set(200);  // only the last word is populated
  EXPECT_EQ(Collect(mask), std::vector<int>{200});
}

// The mask replaced std::set<int> in the kernel; load balancing depends on
// identical membership and identical (ascending) iteration order. Drive both
// through random Set/Clear/Assign and require them to stay indistinguishable.
TEST(CpuMaskTest, RandomizedDifferentialAgainstStdSet) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    CpuMask mask;
    std::set<int> model;
    for (int step = 0; step < 4000; ++step) {
      const int cpu = static_cast<int>(rng.NextBounded(CpuMask::kMaxCpus));
      const double roll = rng.NextDouble();
      if (roll < 0.4) {
        mask.Set(cpu);
        model.insert(cpu);
      } else if (roll < 0.8) {
        mask.Clear(cpu);
        model.erase(cpu);
      } else {
        const bool value = rng.NextDouble() < 0.5;
        mask.Assign(cpu, value);
        if (value) {
          model.insert(cpu);
        } else {
          model.erase(cpu);
        }
      }
      ASSERT_EQ(mask.Test(cpu), model.count(cpu) != 0) << "seed " << seed << " step " << step;
      ASSERT_EQ(mask.Count(), static_cast<int>(model.size()));
      ASSERT_EQ(mask.Any(), !model.empty());
      ASSERT_EQ(mask.Empty(), model.empty());
      if (step % 64 == 0) {
        // Full sweep: membership of every cpu plus iteration order.
        for (int c = 0; c < CpuMask::kMaxCpus; ++c) {
          ASSERT_EQ(mask.Test(c), model.count(c) != 0) << "cpu " << c;
        }
        ASSERT_EQ(Collect(mask), std::vector<int>(model.begin(), model.end()));
      }
    }
    ASSERT_EQ(Collect(mask), std::vector<int>(model.begin(), model.end()));
  }
}

TEST(CpuMaskTest, NextFromAndSetOpsMatchModel) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    CpuMask a;
    CpuMask b;
    std::set<int> model_a;
    std::set<int> model_b;
    const double density = rng.NextDouble(0.0, 0.5);
    for (int cpu = 0; cpu < CpuMask::kMaxCpus; ++cpu) {
      if (rng.NextBool(density)) {
        a.Set(cpu);
        model_a.insert(cpu);
      }
      if (rng.NextBool(density)) {
        b.Set(cpu);
        model_b.insert(cpu);
      }
    }
    for (int cpu = 0; cpu <= CpuMask::kMaxCpus; ++cpu) {
      const auto it = model_a.lower_bound(cpu);
      ASSERT_EQ(a.NextFrom(cpu), it == model_a.end() ? -1 : *it)
          << "seed " << seed << " cpu " << cpu;
    }
    std::vector<int> both;
    std::vector<int> only_a;
    for (int cpu : model_a) {
      (model_b.count(cpu) != 0 ? both : only_a).push_back(cpu);
    }
    EXPECT_EQ(Collect(a & b), both);
    EXPECT_EQ(Collect(a & ~b), only_a);
    EXPECT_EQ((~CpuMask()).Count(), CpuMask::kMaxCpus);
  }
}

TEST(CpuMaskTest, EveryMachinePresetFits) {
  for (const MachineSpec& m : AllMachines()) {
    EXPECT_LE(m.num_sockets * m.physical_cores_per_socket * m.threads_per_core, CpuMask::kMaxCpus)
        << m.name;
  }
}

}  // namespace
}  // namespace nestsim
