#include "src/cluster/arrival_feed.h"

#include <cassert>
#include <utility>

namespace nestsim {

ArrivalFeed::ArrivalFeed(DomainGroup* group, RequestStream* stream, FireFn fire)
    : group_(group), stream_(stream), fire_(std::move(fire)) {}

void ArrivalFeed::Start() {
  assert(scheduled_ == 0 && drawn_.empty() && "Start() runs once");
  ScheduleInstant();
}

void ArrivalFeed::DrawAhead() {
  while (drawn_.empty() || drawn_.back().front().arrival == drawn_.front().front().arrival) {
    std::vector<RequestPart> parts;
    if (!drawn_.empty()) {
      parts.reserve(drawn_.back().size());  // requests of a stream are alike
    }
    if (!stream_->Next(&parts)) {
      return;  // the trace is exhausted; Next() keeps returning false
    }
    drawn_.push_back(std::move(parts));
  }
}

void ArrivalFeed::ScheduleInstant() {
  DrawAhead();
  if (drawn_.empty()) {
    return;  // the trace is exhausted
  }
  const SimTime instant = drawn_.front().front().arrival;
  trigger_ = scheduled_;
  while (!drawn_.empty() && drawn_.front().front().arrival == instant) {
    requests_.push_back(RequestRecord{instant, scheduled_});
    for (RequestPart& part : drawn_.front()) {
      // The event captures only the index, so it fits EventFn's inline buffer.
      group_->ScheduleCoordinator(instant, [this, index = scheduled_++] { Fire(index); });
      queued_.push_back(std::move(part));
    }
    drawn_.pop_front();
  }
}

void ArrivalFeed::Fire(size_t index) {
  // Coordinator arrivals fire in (timestamp, seq) order, which is plan order.
  assert(index == fired_ && !queued_.empty());
  RequestPart part = std::move(queued_.front());
  queued_.pop_front();
  ++fired_;
  if (index == trigger_) {
    ScheduleInstant();
  }
  fire_(index, part);
}

}  // namespace nestsim
