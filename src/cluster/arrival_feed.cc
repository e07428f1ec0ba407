#include "src/cluster/arrival_feed.h"

#include <cassert>
#include <utility>

namespace nestsim {

ArrivalFeed::ArrivalFeed(DomainGroup* group, RequestStream* stream, FireFn fire)
    : group_(group), stream_(stream), fire_(std::move(fire)) {}

void ArrivalFeed::Start() {
  assert(scheduled_ == 0 && next_.empty() && "Start() runs once");
  stream_->Next(&next_);
  ScheduleInstant();
}

void ArrivalFeed::ScheduleInstant() {
  if (next_.empty()) {
    return;  // the trace is exhausted
  }
  const SimTime instant = next_.front().arrival;
  trigger_ = scheduled_;
  do {
    requests_.push_back(RequestRecord{instant, scheduled_});
    for (RequestPart& part : next_) {
      // The event captures only the index, so it fits EventFn's inline buffer.
      group_->ScheduleCoordinator(instant, [this, index = scheduled_++] { Fire(index); });
      queued_.push_back(std::move(part));
    }
    next_.clear();
  } while (stream_->Next(&next_) && next_.front().arrival == instant);
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
