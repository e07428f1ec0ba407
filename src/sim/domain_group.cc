#include "src/sim/domain_group.h"

#include <cassert>

namespace nestsim {

namespace {

// Same stride the single-engine experiment loop uses, so abort latency and
// checker fail-fast behave as they did on one shared engine.
constexpr int kAbortCheckStride = 2048;

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

// Fires the globally earliest event across every queue, coordinator last at
// equal timestamps, replicating the single-shared-engine loop (liveness and
// time-limit checked before every event, abort/checker polled on a stride,
// one event at or past the limit allowed to fire).
DomainGroup::RunResult DomainGroup::Run(const RunOptions& options) {
  assert(options.live && "RunOptions::live is required");
  RunResult result;
  const int n = size();
  int until_check = kAbortCheckStride;
  while (options.live() && global_now_ < options.time_limit) {
    if (--until_check <= 0) {
      until_check = kAbortCheckStride;
      if (options.should_abort && options.should_abort()) {
        result.aborted = true;
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
    } else {
      domains_[static_cast<size_t>(best)]->Step();
      global_now_ = best_time;
    }
  }
  return result;
}

}  // namespace nestsim
