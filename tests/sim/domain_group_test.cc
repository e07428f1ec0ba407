// DomainGroup (src/sim/domain_group.h): the canonical (timestamp, domain id,
// insertion seq) total order, clock semantics at cross-domain events, and
// the run controls (time limit, abort, fail-fast).

#include "src/sim/domain_group.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace nestsim {
namespace {

TEST(EngineClockTest, NextEventTimeReportsTheEarliestPendingEvent) {
  Engine engine;
  EXPECT_EQ(engine.NextEventTime(), Engine::kNoEvent);

  engine.ScheduleAt(30, [] {});
  const EventId early = engine.ScheduleAt(10, [] {});
  EXPECT_EQ(engine.NextEventTime(), 10);

  // Cancelling the head lazily reclaims it.
  engine.Cancel(early);
  EXPECT_EQ(engine.NextEventTime(), 30);

  EXPECT_TRUE(engine.Step());
  EXPECT_EQ(engine.Now(), 30);
  EXPECT_EQ(engine.NextEventTime(), Engine::kNoEvent);
}

TEST(EngineClockTest, AdvanceToMovesTheClockWithoutFiring) {
  Engine engine;
  bool fired = false;
  engine.ScheduleAt(50, [&fired] { fired = true; });
  engine.AdvanceTo(40);
  EXPECT_EQ(engine.Now(), 40);
  EXPECT_FALSE(fired);
  EXPECT_EQ(engine.NextEventTime(), 50);
}

// Runs a group built by `build`, which appends "<who>@<t>" labels to `log`
// from every event, and returns the log.
using GroupBuilder = std::function<void(DomainGroup&, std::vector<std::string>&)>;

std::vector<std::string> RunGroup(int domains, const GroupBuilder& build) {
  DomainGroup group(domains);
  std::vector<std::string> log;
  build(group, log);
  DomainGroup::RunOptions options;
  options.time_limit = 1 * kSecond;
  options.live = [] { return true; };
  DomainGroup::RunResult result = group.Run(options);
  EXPECT_FALSE(result.aborted);
  return log;
}

std::string Label(const char* who, SimTime t) {
  return std::string(who) + "@" + std::to_string(t);
}

// Same timestamp across three domains and the coordinator: the canonical
// order fires domains in id order, the coordinator last.
TEST(DomainGroupOrderTest, EqualTimestampsFireDomainsInIdOrderThenCoordinator) {
  const GroupBuilder build = [](DomainGroup& group, std::vector<std::string>& log) {
    // Scheduled in scrambled order: insertion order must not matter across
    // queues, only within one queue.
    group.domain(2).ScheduleAt(100, [&log] { log.push_back(Label("d2", 100)); });
    group.ScheduleCoordinator(100, [&log] { log.push_back(Label("coord", 100)); });
    group.domain(0).ScheduleAt(100, [&log] { log.push_back(Label("d0", 100)); });
    group.domain(1).ScheduleAt(100, [&log] { log.push_back(Label("d1", 100)); });
  };
  const std::vector<std::string> expected = {"d0@100", "d1@100", "d2@100", "coord@100"};
  EXPECT_EQ(RunGroup(3, build), expected);
}

// Within one queue, same-timestamp events keep insertion order (the seq
// component of the canonical order).
TEST(DomainGroupOrderTest, InsertionSeqBreaksTiesWithinOneDomain) {
  const GroupBuilder build = [](DomainGroup& group, std::vector<std::string>& log) {
    group.domain(0).ScheduleAt(5, [&log] { log.push_back("first"); });
    group.domain(0).ScheduleAt(5, [&log] { log.push_back("second"); });
    group.domain(0).ScheduleAt(5, [&log] { log.push_back("third"); });
  };
  const std::vector<std::string> expected = {"first", "second", "third"};
  EXPECT_EQ(RunGroup(2, build), expected);
}

// A coordinator event that fans work out to domains at its own timestamp:
// the spawned domain events fire before the next coordinator event at that
// instant (domains sort below the coordinator at equal time), so a
// same-instant second arrival observes the first arrival's effects.
TEST(DomainGroupOrderTest, SameInstantFanoutInterleavesBeforeTheNextCoordinatorEvent) {
  const GroupBuilder build = [](DomainGroup& group, std::vector<std::string>& log) {
    group.ScheduleCoordinator(40, [&group, &log] {
      log.push_back("arrival1");
      group.domain(0).ScheduleAt(40, [&log] { log.push_back("inject-d0"); });
      group.domain(1).ScheduleAt(40, [&log] { log.push_back("inject-d1"); });
    });
    group.ScheduleCoordinator(40, [&log] { log.push_back("arrival2"); });
  };
  const std::vector<std::string> expected = {"arrival1", "inject-d0", "inject-d1", "arrival2"};
  EXPECT_EQ(RunGroup(2, build), expected);
}

// Clock semantics at a cross-domain event: every domain clock reaches the
// coordinator timestamp before the event runs (lazy integrators read those
// clocks), and Now() tracks the last fired event.
TEST(DomainGroupTest, DomainClocksReachTheCoordinatorTimestampBeforeItFires) {
  DomainGroup group(2);
  SimTime d0_at_arrival = -1;
  SimTime d1_at_arrival = -1;
  group.domain(0).ScheduleAt(10, [] {});
  group.ScheduleCoordinator(25, [&] {
    d0_at_arrival = group.domain(0).Now();
    d1_at_arrival = group.domain(1).Now();
  });
  DomainGroup::RunOptions options;
  options.time_limit = 1 * kSecond;
  options.live = [] { return true; };
  group.Run(options);
  EXPECT_EQ(d0_at_arrival, 25);
  EXPECT_EQ(d1_at_arrival, 25);
  EXPECT_EQ(group.Now(), 25);
  EXPECT_EQ(group.TotalEventsFired(), 2u);
}

TEST(DomainGroupTest, TimeLimitFiresOneEventAtOrPastTheLimitLikeTheSerialLoop) {
  DomainGroup group(2);
  std::vector<std::string> log;
  group.domain(0).ScheduleAt(10, [&log] { log.push_back("before"); });
  group.domain(1).ScheduleAt(200, [&log] { log.push_back("at-limit"); });
  group.domain(0).ScheduleAt(300, [&log] { log.push_back("never"); });
  DomainGroup::RunOptions options;
  options.time_limit = 200;
  options.live = [] { return true; };
  group.Run(options);
  const std::vector<std::string> expected = {"before", "at-limit"};
  EXPECT_EQ(log, expected);
}

TEST(DomainGroupTest, ShouldAbortStopsTheRunAndMarksTheResult) {
  DomainGroup group(2);
  // Enough events that the polling stride trips.
  for (int i = 0; i < 10000; ++i) {
    group.domain(i % 2).ScheduleAt(i + 1, [] {});
  }
  DomainGroup::RunOptions options;
  options.time_limit = 1 * kSecond;
  options.live = [] { return true; };
  options.should_abort = [] { return true; };
  const DomainGroup::RunResult result = group.Run(options);
  EXPECT_TRUE(result.aborted);
}

TEST(DomainGroupTest, UnhealthyStopsTheRunWithoutAborting) {
  DomainGroup group(1);
  for (int i = 0; i < 10000; ++i) {
    group.domain(0).ScheduleAt(i + 1, [] {});
  }
  DomainGroup::RunOptions options;
  options.time_limit = 1 * kSecond;
  options.live = [] { return true; };
  options.healthy = [] { return false; };
  const DomainGroup::RunResult result = group.Run(options);
  EXPECT_FALSE(result.aborted);
  EXPECT_GT(group.domain(0).pending_events(), 0u);
}

}  // namespace
}  // namespace nestsim
