// The arrival feed (src/cluster/arrival_feed.h) on a bare DomainGroup: it
// must fire exactly BuildPlan's parts, in plan order and at their arrival
// timestamps, while holding at most two arrival instants on the coordinator,
// and a coordinator event that a domain event schedules at an arrival
// instant must still fire after every arrival of that instant.

#include "src/cluster/arrival_feed.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/domain_group.h"
#include "src/workloads/requests.h"

namespace nestsim {
namespace {

RequestSpec PoissonWithFanout() {
  RequestSpec spec;
  spec.name = "poisson";
  spec.rate_per_s = 300.0;
  spec.duration_s = 0.2;
  spec.fanout = 3;
  return spec;
}

RequestSpec BurstyWithIoPause() {
  RequestSpec spec;
  spec.name = "bursty";
  spec.arrivals = ArrivalKind::kBursty;
  spec.rate_per_s = 200.0;
  spec.duration_s = 0.3;
  spec.burst_every_s = 0.1;
  spec.burst_len_s = 0.02;
  spec.io_pause_ms = 0.3;
  return spec;
}

RequestSpec Diurnal() {
  RequestSpec spec;
  spec.name = "diurnal";
  spec.rate_per_s = 500.0;
  spec.duration_s = 0.4;
  spec.diurnal_depth = 0.8;
  spec.diurnal_period_s = 0.2;
  spec.fanout = 1;
  return spec;
}

void RunGroup(DomainGroup* group, std::function<bool()> live) {
  DomainGroup::RunOptions options;
  options.time_limit = std::numeric_limits<SimTime>::max();
  options.live = std::move(live);
  group->Run(options);
}

void ExpectSameOps(const Program& a, const Program& b) {
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].kind, b.ops[i].kind);
    EXPECT_EQ(a.ops[i].work, b.ops[i].work);
    EXPECT_EQ(a.ops[i].duration, b.ops[i].duration);
  }
}

// Number of plan parts at each arrival instant, and each part's instant.
struct Instants {
  std::vector<size_t> size;
  std::vector<size_t> of_part;
};

Instants InstantsOf(const RequestPlan& plan) {
  Instants out;
  for (size_t i = 0; i < plan.parts.size(); ++i) {
    if (i == 0 || plan.parts[i].arrival != plan.parts[i - 1].arrival) {
      out.size.push_back(0);
    }
    ++out.size.back();
    out.of_part.push_back(out.size.size() - 1);
  }
  return out;
}

TEST(ArrivalFeedTest, FiresBuildPlansPartsInOrderWithinTwoInstants) {
  for (const RequestSpec& spec : {PoissonWithFanout(), BurstyWithIoPause(), Diurnal()}) {
    for (const uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(spec.name + " seed " + std::to_string(seed));
      Rng plan_rng(seed);
      const RequestPlan plan = RequestWorkload(spec).BuildPlan(plan_rng);
      const Instants instants = InstantsOf(plan);
      ASSERT_GT(instants.size.size(), 2u);

      Rng rng(seed);
      RequestStream stream(spec, &rng);
      DomainGroup group(1);
      size_t fired = 0;
      size_t max_pending = 0;
      ArrivalFeed feed(&group, &stream, [&](size_t index, RequestPart& part) {
        ASSERT_EQ(index, fired);
        ASSERT_LT(index, plan.parts.size());
        const RequestPart& want = plan.parts[index];
        EXPECT_EQ(group.coordinator().Now(), want.arrival);
        EXPECT_EQ(part.arrival, want.arrival);
        EXPECT_EQ(part.request, want.request);
        EXPECT_EQ(part.part, want.part);
        EXPECT_EQ(part.name, want.name);
        EXPECT_EQ(part.program->name, want.program->name);
        ExpectSameOps(*part.program, *want.program);
        // This instant's unfired parts plus, at most, the whole next one.
        const size_t k = instants.of_part[index];
        const size_t next = k + 1 < instants.size.size() ? instants.size[k + 1] : 0;
        const size_t pending = group.coordinator().pending_events();
        EXPECT_LE(pending, instants.size[k] + next);
        max_pending = std::max(max_pending, pending);
        ++fired;
      });
      feed.Start();
      EXPECT_EQ(group.coordinator().pending_events(), instants.size[0]);
      // A bare group has no machines, so the feed alone keeps the run going.
      RunGroup(&group, [&feed] { return feed.live(); });

      EXPECT_FALSE(feed.live());
      EXPECT_EQ(fired, plan.parts.size());
      EXPECT_EQ(stream.requests(), plan.requests);
      EXPECT_EQ(feed.parts_scheduled(), plan.parts.size());
      EXPECT_LT(max_pending, plan.parts.size());
      // One record per request: its arrival and its first part.
      ASSERT_EQ(feed.requests().size(), plan.requests);
      for (size_t i = 0; i < plan.parts.size(); ++i) {
        if (plan.parts[i].part == 0) {
          const RequestRecord& record = feed.requests()[plan.parts[i].request];
          EXPECT_EQ(record.arrival, plan.parts[i].arrival);
          EXPECT_EQ(record.first_part, i);
        }
      }
    }
  }
}

// The replica reap's tie rule. A domain event at an arrival instant fires
// before the coordinator's events at that instant (domains sort first), and
// the coordinator event it schedules at the same instant must still come
// after every arrival there, as it did when the whole plan was scheduled
// before the run. A feed that queued one part when the previous one fired
// would let it in between the parts of a fanned-out request.
TEST(ArrivalFeedTest, SameInstantCoordinatorEventFiresAfterEveryArrival) {
  const RequestSpec spec = PoissonWithFanout();
  Rng plan_rng(4);
  const RequestPlan plan = RequestWorkload(spec).BuildPlan(plan_rng);
  const Instants instants = InstantsOf(plan);
  ASSERT_GT(instants.size.size(), 2u);
  ASSERT_GT(instants.size[0], 1u);

  Rng rng(4);
  RequestStream stream(spec, &rng);
  DomainGroup group(1);
  std::vector<std::string> log;
  ArrivalFeed feed(&group, &stream, [&log](size_t index, RequestPart&) {
    log.push_back("arrival " + std::to_string(index));
  });
  for (size_t i = 0; i < plan.parts.size(); ++i) {
    if (i == 0 || plan.parts[i].arrival != plan.parts[i - 1].arrival) {
      const SimTime t = plan.parts[i].arrival;
      const size_t k = instants.of_part[i];
      group.domain(0).ScheduleAt(t, [&group, &log, t, k] {
        group.ScheduleCoordinator(t, [&log, k] { log.push_back("reap " + std::to_string(k)); });
      });
    }
  }
  feed.Start();
  RunGroup(&group, [] { return true; });  // until every queue drains

  std::vector<std::string> want;
  for (size_t i = 0; i < plan.parts.size(); ++i) {
    want.push_back("arrival " + std::to_string(i));
    if (i + 1 == plan.parts.size() || plan.parts[i + 1].arrival != plan.parts[i].arrival) {
      want.push_back("reap " + std::to_string(instants.of_part[i]));
    }
  }
  EXPECT_EQ(log, want);
}

TEST(ArrivalFeedTest, EmptyTraceIsNeverLive) {
  RequestSpec spec = PoissonWithFanout();
  spec.duration_s = 0.0;
  Rng rng(1);
  RequestStream stream(spec, &rng);
  DomainGroup group(1);
  ArrivalFeed feed(&group, &stream, [](size_t, RequestPart&) { FAIL() << "nothing to fire"; });
  feed.Start();
  EXPECT_FALSE(feed.live());
  EXPECT_EQ(group.coordinator().pending_events(), 0u);
  EXPECT_EQ(stream.requests(), 0u);
}

}  // namespace
}  // namespace nestsim
