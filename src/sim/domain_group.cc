#include "src/sim/domain_group.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <exception>
#include <limits>
#include <optional>
#include <system_error>
#include <thread>
#include <utility>

#include "src/sim/cpu_budget.h"

namespace nestsim {

namespace {

// Same stride the single-engine experiment loop uses, so abort latency and
// checker fail-fast behave as they did on one shared engine.
constexpr int kAbortCheckStride = 2048;

// How long a thread polls before it blocks in the kernel. A coordinator
// phase plus the rest of a window lasts tens of microseconds, so a helper
// that spins through it starts the next window without a wake-up, which on
// a virtual machine can cost as much as the window itself: on perfbench
// `rack` (4 vCPUs), a 50 us spin lost 18% of the window time to hand-offs
// and 200 us lost 3%.
constexpr std::chrono::microseconds kSpin{200};

std::atomic<int> g_forced_workers{-1};

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Returns the first value of `value` for which `done` holds: polls for up to
// kSpin, yielding now and then to any thread waiting for this CPU, then
// blocks on the atomic until a store changes it.
template <typename T, typename Done>
T SpinThenWait(const std::atomic<T>& value, Done done) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline = Clock::now() + kSpin;
  T v{};
  for (int polls = 1; !done(v = value.load(std::memory_order_acquire)); ++polls) {
    if (polls % 64 != 0) {
      CpuRelax();
    } else if (Clock::now() < deadline) {
      std::this_thread::yield();
    } else {
      value.wait(v, std::memory_order_acquire);
    }
  }
  return v;
}

// Helper threads for one windowed run. Every window hands each helper and
// the calling thread the same job, which must not throw; Dispatch() returns
// once all of them finished it.
class WindowPool {
 public:
  // Starts up to `workers` helpers, fewer if the system refuses a thread:
  // results do not depend on the count.
  explicit WindowPool(int workers) {
    threads_.reserve(static_cast<size_t>(workers));
    for (int i = 0; i < workers; ++i) {
      try {
        threads_.emplace_back([this, i] { Work(i); });
      } catch (const std::system_error&) {
        break;
      }
    }
  }

  ~WindowPool() {
    stop_ = true;
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
    for (std::thread& t : threads_) {
      t.join();
    }
  }

  WindowPool(const WindowPool&) = delete;
  WindowPool& operator=(const WindowPool&) = delete;

  int workers() const { return static_cast<int>(threads_.size()); }

  // Runs job(i) on every helper i and job(workers) on the calling thread,
  // and waits for all of them.
  void Dispatch(const std::function<void(int thread)>& job) {
    job_ = &job;
    running_.store(static_cast<int>(threads_.size()), std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
    job(static_cast<int>(threads_.size()));
    SpinThenWait(running_, [](int left) { return left == 0; });
  }

 private:
  void Work(int index) {
    uint32_t seen = 0;
    for (;;) {
      seen = SpinThenWait(generation_, [seen](uint32_t g) { return g != seen; });
      if (stop_) {
        return;
      }
      (*job_)(index);
      if (running_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        running_.notify_one();
      }
    }
  }

  // Bumped to hand out a job (or stop_); job_ and stop_ are written before
  // the bump and read after it.
  std::atomic<uint32_t> generation_{0};
  std::atomic<int> running_{0};  // helpers still in the current job
  const std::function<void(int)>* job_ = nullptr;
  bool stop_ = false;
  std::vector<std::thread> threads_;  // last: the helpers use every member above
};

}  // namespace

DomainGroup::DomainGroup(int domains) {
  assert(domains >= 1);
  domains_.reserve(static_cast<size_t>(domains));
  for (int i = 0; i < domains; ++i) {
    domains_.push_back(std::make_unique<Engine>());
  }
}

uint64_t DomainGroup::TotalEventsFired() const {
  uint64_t total = coordinator_.events_fired();
  for (const auto& d : domains_) {
    total += d->events_fired();
  }
  return total;
}

void DomainGroup::AdvanceAllTo(SimTime t) {
  for (auto& d : domains_) {
    if (d->Now() < t) {
      d->AdvanceTo(t);
    }
  }
  if (coordinator_.Now() < t) {
    coordinator_.AdvanceTo(t);
  }
}

void DomainGroup::EnableWindows(std::function<void()> overlap) {
  windows_ = true;
  overlap_ = std::move(overlap);
}

void DomainGroup::SetWorkersForTesting(int workers) {
  g_forced_workers.store(workers, std::memory_order_relaxed);
}

DomainGroup::RunResult DomainGroup::Run(const RunOptions& options) {
  assert(options.live && "RunOptions::live is required");
  RunResult result;
  if (windows_ && size() >= 2) {
    const int forced = g_forced_workers.load(std::memory_order_relaxed);
    bool dense = forced > 0;
    if (forced < 0) {
      // The probe: the serial loop fires the first coordinator instants
      // while counting the domain events up to them and the host time.
      const uint64_t before = TotalEventsFired() - coordinator_.events_fired();
      const auto start = std::chrono::steady_clock::now();
      if (RunSerial(options, kProbeInstants, &result)) {
        return result;
      }
      const int64_t host_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                               start)
              .count();
      const uint64_t fired = TotalEventsFired() - coordinator_.events_fired() - before;
      dense = fired >= kProbeInstants * kMinDomainEventsPerInstant &&
              host_ns >= kProbeInstants * kMinHostNanosPerInstant;
    }
    if (dense) {
      std::optional<CpuBudget::Loan> loan;
      if (forced < 0) {
        loan.emplace(size() - 1);  // the caller pumps domains too
      }
      const int workers = loan ? loan->cpus() : forced;
      if (workers > 0 && RunWindows(options, workers, &result)) {
        return result;
      }
    }  // the loan ends here: the serial loop needs only the calling thread
  }
  RunSerial(options, std::numeric_limits<int>::max(), &result);
  return result;
}

// Fires the globally earliest event across every queue, coordinator last at
// equal timestamps, replicating the single-shared-engine loop (liveness and
// time-limit checked before every event, abort/checker polled on a stride,
// one event at or past the limit allowed to fire).
bool DomainGroup::RunSerial(const RunOptions& options, int instants, RunResult* result) {
  const int n = size();
  int until_check = kAbortCheckStride;
  while (options.live() && global_now_ < options.time_limit) {
    if (--until_check <= 0) {
      until_check = kAbortCheckStride;
      if (options.should_abort && options.should_abort()) {
        result->aborted = true;
        break;
      }
      if (options.healthy && !options.healthy()) {
        break;  // fail fast; the caller raises the checker report
      }
    }
    // Earliest domain event; ties break toward the lower domain id.
    int best = -1;
    SimTime best_time = Engine::kNoEvent;
    for (int d = 0; d < n; ++d) {
      const SimTime t = domains_[static_cast<size_t>(d)]->NextEventTime();
      if (t < best_time) {
        best_time = t;
        best = d;
      }
    }
    const SimTime coord_time = coordinator_.NextEventTime();
    if (best == -1 && coord_time == Engine::kNoEvent) {
      break;  // every queue drained
    }
    if (coord_time < best_time) {
      // Cross-domain event: line every domain clock up first, exactly as the
      // shared clock stood when the router or reap ran on one engine.
      for (auto& d : domains_) {
        d->AdvanceTo(coord_time);
      }
      coordinator_.Step();
      global_now_ = coord_time;
      if (coordinator_.NextEventTime() != coord_time && --instants == 0) {
        return false;  // the coordinator fired its last event at that instant
      }
    } else {
      domains_[static_cast<size_t>(best)]->Step();
      global_now_ = best_time;
    }
  }
  return true;
}

// One window per coordinator timestamp T: (1) every domain fires its events
// at or before T; (2) every clock advances to T; (3) the coordinator fires
// its events at T on the calling thread. Within a domain this is the serial
// loop's order. Across domains only coordinator events could order
// anything, and they fire in step 3 with every domain at T, as the serial
// loop fires them. live() is not evaluated: EnableWindows' contract keeps
// it true while the coordinator holds an event.
//
// Domain d is always pumped by thread d mod (helpers + 1), the calling
// thread last, which runs the overlap work first. A domain that stays on one
// thread allocates from one malloc arena; one that moved between threads
// would leave freed memory in several, and peak RSS grows with that spread.
//
// A domain whose event throws stops there, and the others finish the window.
// The exception rethrown is then the earliest in canonical order, (time,
// domain id), with the overlap's ranked as the coordinator's at T: the one
// the serial loop would have thrown.
bool DomainGroup::RunWindows(const RunOptions& options, int workers, RunResult* result) {
  const int n = size();
  int threads = 0;  // the helpers that started, plus the calling thread
  // Abort polls are on each domain's own event stride, carried across
  // windows (a window is often shorter than the stride).
  std::vector<int> until_check(static_cast<size_t>(n), kAbortCheckStride);
  std::atomic<bool> aborted{false};
  struct Failure {
    SimTime time = 0;
    std::exception_ptr error;
  };
  std::vector<Failure> failures(static_cast<size_t>(n) + 1);  // domains, then the overlap
  SimTime until = 0;
  const std::function<void(int)> window = [&](int thread) {
    if (thread == threads - 1 && overlap_) {
      try {
        overlap_();
      } catch (...) {
        failures[static_cast<size_t>(n)] = {until, std::current_exception()};
      }
    }
    for (int d = thread; d < n; d += threads) {
      Engine& engine = *domains_[static_cast<size_t>(d)];
      int left = until_check[static_cast<size_t>(d)];
      try {
        while (engine.NextEventTime() <= until) {
          if (--left <= 0) {
            left = kAbortCheckStride;
            if (aborted.load(std::memory_order_relaxed) ||
                (options.should_abort && options.should_abort())) {
              aborted.store(true, std::memory_order_relaxed);
              return;
            }
          }
          engine.Step();
        }
      } catch (...) {
        failures[static_cast<size_t>(d)] = {engine.Now(), std::current_exception()};
        continue;
      }
      until_check[static_cast<size_t>(d)] = left;
      engine.AdvanceTo(until);
    }
  };

  WindowPool pool(workers);
  threads = pool.workers() + 1;
  for (SimTime t; (t = coordinator_.NextEventTime()) < options.time_limit;) {
    until = t;
    pool.Dispatch(window);
    const Failure* first = nullptr;
    for (const Failure& failure : failures) {
      if (failure.error && (first == nullptr || failure.time < first->time)) {
        first = &failure;
      }
    }
    if (first != nullptr) {
      std::rethrow_exception(first->error);
    }
    if (aborted.load(std::memory_order_relaxed)) {
      // A wall-clock truncation: commit the farthest event any domain fired.
      for (const auto& d : domains_) {
        global_now_ = std::max(global_now_, d->Now());
      }
      result->aborted = true;
      return true;
    }
    while (coordinator_.NextEventTime() == t) {
      coordinator_.Step();
    }
    global_now_ = t;
    if (options.healthy && !options.healthy()) {
      return true;  // fail fast; the caller raises the checker report
    }
  }
  return false;
}

}  // namespace nestsim
