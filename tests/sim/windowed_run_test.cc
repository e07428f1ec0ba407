// The domain group's windowed executor (src/sim/domain_group.h) and the CPU
// budget that sizes it (src/sim/cpu_budget.h). A windowed run must give
// every domain and the coordinator the fire log the serial loop gives, at
// any helper count; the tests force counts through the test seam, so
// threads interleave on any host. Only the probe's test takes its helpers
// from the CPU budget.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/sim/cpu_budget.h"
#include "src/sim/domain_group.h"
#include "src/sim/engine.h"
#include "src/sim/random.h"

namespace nestsim {
namespace {

// Sets the forced helper count for one scope.
class ForcedWorkers {
 public:
  explicit ForcedWorkers(int workers) { DomainGroup::SetWorkersForTesting(workers); }
  ~ForcedWorkers() { DomainGroup::SetWorkersForTesting(-1); }
};

// A synthetic fleet shaped like the cluster runner. Each domain runs its own
// chain of work events, with gaps drawn from the domain's own Rng (a fifth
// of them zero, the rest up to `max_gap`), each busy for `work` of host
// time, and a load that work events read and wind down. The
// coordinator fires one to four arrivals per instant; the first schedules
// the next instant, as the arrival feed does. Each arrival routes to the
// domain with the least load counting queued injections, logs every
// domain's clock, and queues an injection on that domain at its own
// instant, whose follow-up lands two ticks later, as a placement does.
// Every event appends to its own queue's log, and every domain notes how
// many instants the coordinator had finished when it first ran off the
// thread that built the fleet.
class SyntheticFleet {
 public:
  SyntheticFleet(DomainGroup* group, uint64_t seed, SimTime max_gap,
                 std::chrono::nanoseconds work)
      : group_(group),
        rng_(seed),
        max_gap_(max_gap),
        work_(work),
        caller_(std::this_thread::get_id()) {
    for (int d = 0; d < group->size(); ++d) {
      domains_.push_back(std::make_unique<Domain>(seed * 131 + static_cast<uint64_t>(d)));
      ScheduleWork(d, static_cast<SimTime>(d));
    }
    ScheduleInstant(3);
  }

  // One log per domain, then the coordinator's.
  std::vector<std::vector<std::string>> Logs() const {
    std::vector<std::vector<std::string>> logs;
    for (const auto& domain : domains_) {
      logs.push_back(domain->log);
    }
    logs.push_back(coordinator_log_);
    return logs;
  }

  // Instants finished before the first domain event that ran off the
  // building thread; kNever when none did.
  static constexpr uint64_t kNever = std::numeric_limits<uint64_t>::max();
  uint64_t FirstOffTheCaller() const {
    uint64_t first = kNever;
    for (const auto& domain : domains_) {
      first = std::min(first, domain->first_off_caller);
    }
    return first;
  }

 private:
  struct Domain {
    explicit Domain(uint64_t seed) : rng(seed) {}
    Rng rng;
    int load = 0;
    int pending = 0;  // injections queued, not fired
    uint64_t first_off_caller = kNever;
    std::vector<std::string> log;
  };

  void ScheduleWork(int d, SimTime t) {
    group_->domain(d).ScheduleAt(t, [this, d] {
      Domain& dom = *domains_[static_cast<size_t>(d)];
      const SimTime now = group_->domain(d).Now();
      if (dom.first_off_caller == kNever && std::this_thread::get_id() != caller_) {
        // Arrivals fire only between windows, so reading their count here
        // is ordered by the window's hand-off.
        dom.first_off_caller = instants_finished_;
      }
      dom.log.push_back("work@" + std::to_string(now) + " load " + std::to_string(dom.load));
      const auto busy_until = std::chrono::steady_clock::now() + work_;
      while (work_.count() > 0 && std::chrono::steady_clock::now() < busy_until) {
      }
      if (dom.load > 0 && dom.rng.NextBool(0.3)) {
        --dom.load;
      }
      const SimTime gap = dom.rng.NextBool(0.2)
                              ? 0
                              : 1 + static_cast<SimTime>(dom.rng.NextBounded(
                                        static_cast<uint64_t>(max_gap_)));
      ScheduleWork(d, now + gap);
    });
  }

  void ScheduleInstant(SimTime t) {
    const int arrivals = 1 + static_cast<int>(rng_.NextBounded(4));
    for (int a = 0; a < arrivals; ++a) {
      group_->ScheduleCoordinator(t, [this, a, arrivals, t] {
        if (a == 0) {
          ScheduleInstant(t + 1 + static_cast<SimTime>(rng_.NextBounded(60)));
        }
        Arrive(t);
        if (a + 1 == arrivals) {
          ++instants_finished_;
        }
      });
    }
  }

  void Arrive(SimTime t) {
    std::string entry = "arrive@" + std::to_string(t) + " clocks";
    int best = 0;
    for (int d = 0; d < group_->size(); ++d) {
      const Domain& dom = *domains_[static_cast<size_t>(d)];
      entry += " " + std::to_string(group_->domain(d).Now());
      const Domain& cur = *domains_[static_cast<size_t>(best)];
      if (dom.load + dom.pending < cur.load + cur.pending) {
        best = d;
      }
    }
    coordinator_log_.push_back(entry + " -> d" + std::to_string(best));
    ++domains_[static_cast<size_t>(best)]->pending;
    group_->domain(best).ScheduleAt(t, [this, best] {
      Domain& dom = *domains_[static_cast<size_t>(best)];
      const SimTime now = group_->domain(best).Now();
      --dom.pending;
      ++dom.load;
      dom.log.push_back("inject@" + std::to_string(now));
      group_->domain(best).ScheduleAt(now + 2, [&dom, now] {
        dom.log.push_back("placed " + std::to_string(now));
      });
    });
  }

  DomainGroup* group_;
  Rng rng_;
  SimTime max_gap_;
  std::chrono::nanoseconds work_;
  std::thread::id caller_;
  uint64_t instants_finished_ = 0;
  std::vector<std::unique_ptr<Domain>> domains_;
  std::vector<std::string> coordinator_log_;
};

struct FleetRun {
  std::vector<std::vector<std::string>> logs;
  SimTime now = 0;
  uint64_t events = 0;
  uint64_t first_off_caller = SyntheticFleet::kNever;
};

// Runs a synthetic fleet to `limit` with `workers` forced helpers (0: the
// serial loop; kBudget: the probe and the CPU budget decide).
constexpr int kBudget = -1;
FleetRun RunFleet(int domains, uint64_t seed, int workers, SimTime limit = 8000,
                  SimTime max_gap = 40, std::chrono::nanoseconds work = {}) {
  ForcedWorkers forced(workers);
  DomainGroup group(domains);
  SyntheticFleet fleet(&group, seed, max_gap, work);
  group.EnableWindows();
  DomainGroup::RunOptions options;
  options.time_limit = limit;
  options.live = [] { return true; };
  const DomainGroup::RunResult result = group.Run(options);
  EXPECT_FALSE(result.aborted);
  return FleetRun{fleet.Logs(), group.Now(), group.TotalEventsFired(), fleet.FirstOffTheCaller()};
}

TEST(WindowedRunTest, EveryQueueFiresTheSerialLoopsLogAtAnyWorkerCount) {
  for (const int domains : {2, 3, 8}) {
    for (const uint64_t seed : {1u, 2u, 3u}) {
      const FleetRun serial = RunFleet(domains, seed, 0);
      ASSERT_GT(serial.logs.back().size(), 100u);
      for (const int workers : {1, 2, 3, 7}) {
        SCOPED_TRACE(std::to_string(domains) + " domains, seed " + std::to_string(seed) + ", " +
                     std::to_string(workers) + " workers");
        const FleetRun windowed = RunFleet(domains, seed, workers);
        ASSERT_EQ(windowed.logs.size(), serial.logs.size());
        for (size_t q = 0; q < serial.logs.size(); ++q) {
          EXPECT_EQ(windowed.logs[q], serial.logs[q]) << "queue " << q;
        }
        EXPECT_EQ(windowed.now, serial.now);
        EXPECT_EQ(windowed.events, serial.events);
      }
    }
  }
}

// Without a forced count, the serial loop runs the probe, and only a fleet
// dense enough for windows moves off the calling thread, after the probe.
// The dense fleet fires about 200 domain events per instant, each busy for
// 500 ns; the light one about 9, below the event floor on any host. Both
// give the serial loop's logs. On a host with one usable CPU the budget
// lends nothing, and both stay on the serial loop.
TEST(WindowedRunTest, OnlyADenseFleetLeavesTheSerialLoopAfterTheProbe) {
  const std::chrono::nanoseconds work{500};
  for (const uint64_t seed : {1u, 2u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const FleetRun dense = RunFleet(8, seed, kBudget, 8000, /*max_gap=*/2, work);
    const FleetRun dense_serial = RunFleet(8, seed, 0, 8000, /*max_gap=*/2, work);
    EXPECT_EQ(dense.logs, dense_serial.logs);
    EXPECT_EQ(dense.now, dense_serial.now);
    EXPECT_GE(dense.first_off_caller, static_cast<uint64_t>(DomainGroup::kProbeInstants));
    if (UsableCpus() > 1) {
      EXPECT_NE(dense.first_off_caller, SyntheticFleet::kNever);
    }
    const FleetRun light = RunFleet(2, seed, kBudget);
    EXPECT_EQ(light.logs, RunFleet(2, seed, 0).logs);
    EXPECT_EQ(light.first_off_caller, SyntheticFleet::kNever);
  }
}

// The serial tail takes over when the next coordinator event lies at or past
// the limit; a limit between two instants ends both executors alike.
TEST(WindowedRunTest, TimeLimitEndsLikeTheSerialLoop) {
  for (const SimTime limit : {1, 3, 4, 97, 1000}) {
    SCOPED_TRACE("limit " + std::to_string(limit));
    const FleetRun serial = RunFleet(3, 5, 0, limit);
    const FleetRun windowed = RunFleet(3, 5, 2, limit);
    EXPECT_EQ(windowed.logs, serial.logs);
    EXPECT_EQ(windowed.now, serial.now);
  }
}

// Zero forced helpers keeps the serial loop's global order, coordinator
// fan-out interleaved before the next coordinator event.
TEST(WindowedRunTest, ZeroWorkersKeepsTheSerialInterleaving) {
  ForcedWorkers forced(0);
  DomainGroup group(2);
  group.EnableWindows();
  std::vector<std::string> log;
  group.ScheduleCoordinator(40, [&group, &log] {
    log.push_back("arrival1");
    group.domain(1).ScheduleAt(40, [&log] { log.push_back("inject-d1"); });
  });
  group.ScheduleCoordinator(40, [&log] { log.push_back("arrival2"); });
  DomainGroup::RunOptions options;
  options.time_limit = 100;
  options.live = [] { return true; };
  group.Run(options);
  const std::vector<std::string> expected = {"arrival1", "inject-d1", "arrival2"};
  EXPECT_EQ(log, expected);
}

TEST(WindowedRunTest, OverlapRunsOnTheCallingThreadOncePerWindow) {
  ForcedWorkers forced(3);
  DomainGroup group(4);
  const std::thread::id caller = std::this_thread::get_id();
  int windows = 0;
  bool on_caller = true;
  group.EnableWindows([&] {
    ++windows;
    on_caller = on_caller && std::this_thread::get_id() == caller;
  });
  for (const SimTime t : {10, 20, 20, 30, 500}) {
    group.ScheduleCoordinator(t, [] {});
  }
  for (int d = 0; d < 4; ++d) {
    for (SimTime t = 1; t < 600; t += 7) {
      group.domain(d).ScheduleAt(t, [] {});
    }
  }
  DomainGroup::RunOptions options;
  options.time_limit = 400;
  options.live = [] { return true; };
  group.Run(options);
  EXPECT_EQ(windows, 3);  // instants 10, 20 and 30; 500 lies past the limit
  EXPECT_TRUE(on_caller);
  EXPECT_EQ(group.coordinator().pending_events(), 1u);
}

TEST(WindowedRunTest, SingleDomainGroupsStayOnTheCallingThread) {
  ForcedWorkers forced(3);
  DomainGroup group(1);
  group.EnableWindows();
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> elsewhere{0};
  for (SimTime t = 1; t < 200; ++t) {
    group.domain(0).ScheduleAt(t, [&] {
      if (std::this_thread::get_id() != caller) {
        ++elsewhere;
      }
    });
    if (t % 10 == 0) {
      group.ScheduleCoordinator(t, [] {});
    }
  }
  DomainGroup::RunOptions options;
  options.time_limit = 1000;
  options.live = [] { return true; };
  group.Run(options);
  EXPECT_EQ(elsewhere.load(), 0);
  EXPECT_EQ(group.TotalEventsFired(), 199u + 19u);
}

// Runs four domains that throw at `times` (-1: never) and an overlap that
// throws when `overlap_throws`, up to one coordinator event at 10, and
// returns the message of the exception Run() rethrows.
std::string RethrownMessage(int workers, const std::vector<SimTime>& times, bool overlap_throws) {
  ForcedWorkers forced(workers);
  DomainGroup group(4);
  group.EnableWindows([overlap_throws] {
    if (overlap_throws) {
      throw std::runtime_error("overlap");
    }
  });
  for (int d = 0; d < 4; ++d) {
    if (times[static_cast<size_t>(d)] >= 0) {
      group.domain(d).ScheduleAt(times[static_cast<size_t>(d)],
                                 [d] { throw std::runtime_error("domain " + std::to_string(d)); });
    }
  }
  group.ScheduleCoordinator(10, [] {});
  DomainGroup::RunOptions options;
  options.time_limit = 100;
  options.live = [] { return true; };
  try {
    group.Run(options);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "no exception";
}

// Domains throw from their own windows, so some exceptions come from helper
// threads. Run() rethrows the earliest in canonical order, (time, domain
// id), as the serial loop does, and the overlap's ranks after every domain
// event of its window.
TEST(WindowedRunTest, TheEarliestExceptionInCanonicalOrderIsRethrown) {
  const std::vector<SimTime> times = {9, 7, 7, 8};
  EXPECT_EQ(RethrownMessage(0, times, false), "domain 1");
  for (const int workers : {1, 2, 3, 7}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    EXPECT_EQ(RethrownMessage(workers, times, false), "domain 1");
    EXPECT_EQ(RethrownMessage(workers, times, true), "domain 1");
    EXPECT_EQ(RethrownMessage(workers, {-1, -1, 10, -1}, true), "domain 2");
    EXPECT_EQ(RethrownMessage(workers, {-1, -1, -1, -1}, true), "overlap");
  }
}

TEST(WindowedRunTest, ShouldAbortStopsInsideAWindow) {
  ForcedWorkers forced(2);
  DomainGroup group(3);
  group.EnableWindows();
  for (int d = 0; d < 3; ++d) {
    for (int i = 0; i < 5000; ++i) {
      group.domain(d).ScheduleAt(i + 1, [] {});
    }
  }
  group.ScheduleCoordinator(6000, [] {});
  DomainGroup::RunOptions options;
  options.time_limit = 1 * kSecond;
  options.live = [] { return true; };
  options.should_abort = [] { return true; };
  const DomainGroup::RunResult result = group.Run(options);
  EXPECT_TRUE(result.aborted);
  EXPECT_EQ(group.coordinator().pending_events(), 1u);
}

TEST(WindowedRunTest, UnhealthyStopsAtTheFirstBarrier) {
  ForcedWorkers forced(2);
  DomainGroup group(3);
  group.EnableWindows();
  int fired = 0;
  for (const SimTime t : {10, 20, 30}) {
    group.ScheduleCoordinator(t, [&fired] { ++fired; });
  }
  for (int d = 0; d < 3; ++d) {
    group.domain(d).ScheduleAt(25, [] {});
  }
  DomainGroup::RunOptions options;
  options.time_limit = 1000;
  options.live = [] { return true; };
  options.healthy = [] { return false; };
  const DomainGroup::RunResult result = group.Run(options);
  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(group.Now(), 10);
  EXPECT_EQ(group.domain(0).pending_events(), 1u);
}

TEST(CpuBudgetTest, UsableCpusFollowTheAffinityMask) {
  EXPECT_GE(UsableCpus(), 1);
  const unsigned hc = std::thread::hardware_concurrency();
  if (hc > 0) {
    EXPECT_LE(UsableCpus(), static_cast<int>(hc));
  }
}

TEST(CpuBudgetTest, HoldsAndLoansShareOneBudget) {
  const int usable = UsableCpus();
  ASSERT_EQ(CpuBudget::Held(), 0);
  {
    // A one-thread campaign: it holds its CPU and runs on it.
    const CpuBudget::Hold hold(1);
    EXPECT_EQ(CpuBudget::Held(), 1);
    CpuBudget::Loan loan(64);
    EXPECT_EQ(loan.cpus(), usable - 1);
    EXPECT_EQ(CpuBudget::Held(), usable);
    CpuBudget::Loan none(3);  // a full budget lends nothing
    EXPECT_EQ(none.cpus(), 0);
  }
  EXPECT_EQ(CpuBudget::Held(), 0);
  {
    // Outside a campaign the borrowing thread holds its own CPU first.
    CpuBudget::Loan loan(64);
    EXPECT_EQ(loan.cpus(), usable - 1);
    EXPECT_EQ(CpuBudget::Held(), usable);
    CpuBudget::Loan small(1);
    EXPECT_EQ(small.cpus(), 0);
  }
  EXPECT_EQ(CpuBudget::Held(), 0);
}

// With every CPU held (a campaign pool as wide as the host), a windowed
// group falls back to the serial loop: no event leaves the calling thread.
TEST(CpuBudgetTest, AFullBudgetRunsTheSerialLoop) {
  CpuBudget::Loan fill(UsableCpus());
  DomainGroup group(4);
  group.EnableWindows();
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> elsewhere{0};
  for (int d = 0; d < 4; ++d) {
    for (SimTime t = 1; t < 100; ++t) {
      group.domain(d).ScheduleAt(t, [&] {
        if (std::this_thread::get_id() != caller) {
          ++elsewhere;
        }
      });
    }
  }
  for (SimTime t = 5; t < 100; t += 5) {
    group.ScheduleCoordinator(t, [] {});
  }
  DomainGroup::RunOptions options;
  options.time_limit = 1000;
  options.live = [] { return true; };
  group.Run(options);
  EXPECT_EQ(elsewhere.load(), 0);
}

}  // namespace
}  // namespace nestsim
