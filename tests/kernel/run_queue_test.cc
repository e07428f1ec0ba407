#include "src/kernel/run_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "src/sim/random.h"

namespace nestsim {
namespace {

Task MakeTask(int tid, double vruntime) {
  Task t;
  t.tid = tid;
  t.vruntime = vruntime;
  return t;
}

TEST(RunQueueTest, StartsIdle) {
  RunQueue rq;
  EXPECT_TRUE(rq.Idle());
  EXPECT_EQ(rq.NrRunning(), 0);
  EXPECT_EQ(rq.Leftmost(), nullptr);
  EXPECT_EQ(rq.Rightmost(), nullptr);
}

TEST(RunQueueTest, LeftmostIsSmallestVruntime) {
  RunQueue rq;
  Task a = MakeTask(1, 30);
  Task b = MakeTask(2, 10);
  Task c = MakeTask(3, 20);
  rq.Enqueue(&a);
  rq.Enqueue(&b);
  rq.Enqueue(&c);
  EXPECT_EQ(rq.Leftmost(), &b);
  EXPECT_EQ(rq.Rightmost(), &a);
  EXPECT_EQ(rq.QueuedCount(), 3);
}

TEST(RunQueueTest, TiesBreakByTid) {
  RunQueue rq;
  Task a = MakeTask(2, 10);
  Task b = MakeTask(1, 10);
  rq.Enqueue(&a);
  rq.Enqueue(&b);
  EXPECT_EQ(rq.Leftmost(), &b);
}

TEST(RunQueueTest, DequeueRemoves) {
  RunQueue rq;
  Task a = MakeTask(1, 5);
  rq.Enqueue(&a);
  EXPECT_TRUE(rq.Queued(&a));
  rq.Dequeue(&a);
  EXPECT_FALSE(rq.Queued(&a));
  EXPECT_TRUE(rq.Idle());
}

TEST(RunQueueTest, CurrCountsAsRunning) {
  RunQueue rq;
  Task a = MakeTask(1, 5);
  rq.set_curr(&a);
  EXPECT_EQ(rq.NrRunning(), 1);
  EXPECT_FALSE(rq.Idle());
  EXPECT_EQ(rq.QueuedCount(), 0);
}

TEST(RunQueueTest, MinVruntimeIsMonotone) {
  RunQueue rq;
  Task a = MakeTask(1, 100);
  rq.Enqueue(&a);
  const double v1 = rq.min_vruntime();
  rq.Dequeue(&a);
  Task b = MakeTask(2, 50);
  rq.Enqueue(&b);
  // min_vruntime never goes backwards even if a smaller task arrives.
  EXPECT_GE(rq.min_vruntime(), v1);
}

TEST(RunQueueTest, ClaimBlocksSecondClaim) {
  RunQueue rq;
  EXPECT_TRUE(rq.TryClaim(0));
  EXPECT_FALSE(rq.TryClaim(10));
  rq.ClearClaim();
  EXPECT_TRUE(rq.TryClaim(20));
}

TEST(RunQueueTest, ClaimExpires) {
  RunQueue rq;
  EXPECT_TRUE(rq.TryClaim(0));
  // An abandoned claim times out so the CPU is not leaked.
  EXPECT_TRUE(rq.TryClaim(Milliseconds(1)));
}

TEST(RunQueueTest, PlacementLoadDecays) {
  RunQueue rq;
  rq.BumpPlacement(0);
  EXPECT_DOUBLE_EQ(rq.PlacementLoad(0), 1.0);
  const double later = rq.PlacementLoad(10 * kMillisecond);
  EXPECT_NEAR(later, 0.5, 0.01);  // 10 ms half-life
  EXPECT_LT(rq.PlacementLoad(100 * kMillisecond), 0.001);
}

TEST(RunQueueTest, PlacementLoadAccumulates) {
  RunQueue rq;
  rq.BumpPlacement(0);
  rq.BumpPlacement(0);
  EXPECT_DOUBLE_EQ(rq.PlacementLoad(0), 2.0);
}

TEST(RunQueueTest, LeftmostCacheSurvivesDequeueOfLeftmost) {
  RunQueue rq;
  Task a = MakeTask(1, 10);
  Task b = MakeTask(2, 20);
  Task c = MakeTask(3, 30);
  rq.Enqueue(&a);
  rq.Enqueue(&b);
  rq.Enqueue(&c);
  ASSERT_EQ(rq.Leftmost(), &a);
  rq.Dequeue(&a);
  EXPECT_EQ(rq.Leftmost(), &b);
  rq.Dequeue(&b);
  EXPECT_EQ(rq.Leftmost(), &c);
  rq.Dequeue(&c);
  EXPECT_EQ(rq.Leftmost(), nullptr);
}

TEST(RunQueueTest, LeftmostCacheSurvivesDequeueOfNonLeftmost) {
  RunQueue rq;
  Task a = MakeTask(1, 10);
  Task b = MakeTask(2, 20);
  rq.Enqueue(&a);
  rq.Enqueue(&b);
  rq.Dequeue(&b);  // not the leftmost; the cache must be untouched
  EXPECT_EQ(rq.Leftmost(), &a);
}

TEST(RunQueueTest, LeftmostTieBreaksByTid) {
  // Equal vruntimes order by tid (the ByVruntime comparator); the cache must
  // agree with the tree on that tie-break.
  RunQueue rq;
  Task high = MakeTask(7, 5);
  Task low = MakeTask(2, 5);
  rq.Enqueue(&high);
  rq.Enqueue(&low);
  EXPECT_EQ(rq.Leftmost(), &low);
  rq.Dequeue(&low);
  EXPECT_EQ(rq.Leftmost(), &high);
}

// The cached leftmost pointer is redundant state (== queue_.begin()); drive
// the queue through random enqueue/dequeue/curr churn and require the cache,
// Rightmost, LastQueuedWhere and min_vruntime to match an independently
// maintained model.
TEST(RunQueueTest, LeftmostCacheCoherenceUnderRandomOps) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    RunQueue rq;
    std::deque<Task> storage;  // stable addresses
    std::vector<Task*> model;  // queued tasks, unordered
    double model_min_vruntime = 0.0;
    int next_tid = 1;

    const auto before = [](const Task* a, const Task* b) {
      if (a->vruntime != b->vruntime) {
        return a->vruntime < b->vruntime;
      }
      return a->tid < b->tid;
    };

    for (int step = 0; step < 2000; ++step) {
      const double roll = rng.NextDouble();
      if (roll < 0.45 || model.empty()) {
        // Clustered vruntimes so ties and near-ties are common.
        storage.push_back(MakeTask(next_tid++, static_cast<double>(rng.NextBounded(32))));
        rq.Enqueue(&storage.back());
        model.push_back(&storage.back());
      } else if (roll < 0.85) {
        const size_t pick = rng.NextBounded(model.size());
        rq.Dequeue(model[pick]);
        model.erase(model.begin() + static_cast<long>(pick));
      } else if (rq.curr() == nullptr) {
        storage.push_back(MakeTask(next_tid++, static_cast<double>(rng.NextBounded(32))));
        rq.set_curr(&storage.back());
        rq.UpdateMinVruntime();
      } else {
        rq.set_curr(nullptr);
        rq.UpdateMinVruntime();
      }

      // Model update mirroring UpdateMinVruntime's contract: monotone, and
      // advancing to the smallest runnable vruntime.
      Task* expect_left = nullptr;
      Task* expect_right = nullptr;
      for (Task* t : model) {
        if (expect_left == nullptr || before(t, expect_left)) {
          expect_left = t;
        }
        if (expect_right == nullptr || before(expect_right, t)) {
          expect_right = t;
        }
      }
      if (rq.curr() != nullptr) {
        model_min_vruntime =
            std::max(model_min_vruntime,
                     expect_left == nullptr
                         ? rq.curr()->vruntime
                         : std::min(rq.curr()->vruntime, expect_left->vruntime));
      } else if (expect_left != nullptr) {
        model_min_vruntime = std::max(model_min_vruntime, expect_left->vruntime);
      }

      ASSERT_EQ(rq.Leftmost(), expect_left) << "seed " << seed << " step " << step;
      ASSERT_EQ(rq.Rightmost(), expect_right) << "seed " << seed << " step " << step;
      ASSERT_EQ(rq.QueuedCount(), static_cast<int>(model.size()));
      ASSERT_EQ(rq.min_vruntime(), model_min_vruntime) << "seed " << seed << " step " << step;
      if (!model.empty()) {
        // The cache must also agree with the tree's own ordering.
        ASSERT_EQ(rq.Leftmost(), rq.QueuedTasks().front());
      }
      // The in-place back-to-front scan the balancer steals with.
      const auto steals = [](const Task* t) { return t->tid % 3 != 0; };
      Task* expect_steal = nullptr;
      for (Task* t : model) {
        if (steals(t) && (expect_steal == nullptr || before(expect_steal, t))) {
          expect_steal = t;
        }
      }
      ASSERT_EQ(rq.LastQueuedWhere(steals), expect_steal) << "seed " << seed << " step " << step;
    }
  }
}

}  // namespace
}  // namespace nestsim
