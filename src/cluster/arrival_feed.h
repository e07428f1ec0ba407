// Streams a RequestStream's arrivals onto a DomainGroup's coordinator.
//
// The feed keeps the coordinator one *arrival instant* ahead of the run, so
// host memory follows the live requests, not the length of the trace: the
// parts of instant 0 (every part sharing the first arrival timestamp) are
// drawn and scheduled by Start(), and the parts of instant k when the first
// part of instant k-1 fires. The coordinator then holds at most two
// instants' arrivals.
//
// The events fire in the order that scheduling the whole plan before the
// run gives (the order single-machine Setup uses and the goldens pin):
// instant k is queued at the earlier time of instant k-1, so its parts keep
// plan order and hold lower seqs than every coordinator event a domain
// event schedules *at* instant k's timestamp, such as a replica reap. That
// needs the whole instant queued at once: queueing one part when the
// previous one fires would let a same-instant domain event, which fires
// before the coordinator's, slip a reap between two parts of one instant.
//
// Drawing is separate from queueing. DrawAhead() draws the next instant and
// the request that opens the one after it, and queueing draws only what
// DrawAhead() left undrawn. The draws read nothing but the stream's RNG, so
// the fleet runner draws while the domains run a window (docs/DOMAINS.md §4)
// and the serial coordinator phase only queues.

#ifndef NESTSIM_SRC_CLUSTER_ARRIVAL_FEED_H_
#define NESTSIM_SRC_CLUSTER_ARRIVAL_FEED_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <vector>

#include "src/sim/domain_group.h"
#include "src/workloads/requests.h"

namespace nestsim {

// One scheduled request, for the end-of-run report: its parts are
// [first_part, the next record's first_part), in plan order.
struct RequestRecord {
  SimTime arrival = 0;
  size_t first_part = 0;
};

class ArrivalFeed {
 public:
  // Runs inside each part's coordinator event, in plan order. `index` is the
  // part's 0-based position in the plan; `part` may be moved from.
  using FireFn = std::function<void(size_t index, RequestPart& part)>;

  // `group` and `stream` must outlive the feed.
  ArrivalFeed(DomainGroup* group, RequestStream* stream, FireFn fire);
  ArrivalFeed(const ArrivalFeed&) = delete;
  ArrivalFeed& operator=(const ArrivalFeed&) = delete;

  // Schedules instant 0. Call once, before the run.
  void Start();

  // Draws, without scheduling, until the requests drawn ahead hold the whole
  // next instant and the request after it, or the stream ends. Touches only
  // the stream and the feed's draw buffer.
  void DrawAhead();

  // True while a scheduled part has not fired or the stream holds more
  // requests: the fleet is not done offering load.
  bool live() const { return fired_ < scheduled_ || !drawn_.empty(); }

  // Every request scheduled so far, in plan order, and their part count.
  const std::vector<RequestRecord>& requests() const { return requests_; }
  size_t parts_scheduled() const { return scheduled_; }

 private:
  // Moves the next instant's requests onto the coordinator, drawing the
  // rest of it and the request after it first.
  void ScheduleInstant();
  void Fire(size_t index);

  DomainGroup* group_;
  RequestStream* stream_;
  FireFn fire_;
  std::deque<RequestPart> queued_;  // scheduled, unfired; front is part fired_
  // Drawn, unscheduled requests (one parts vector each) in plan order: the
  // next instant, whole or begun, and after DrawAhead() the request that
  // opens the instant after it.
  std::deque<std::vector<RequestPart>> drawn_;
  std::vector<RequestRecord> requests_;
  size_t scheduled_ = 0;
  size_t fired_ = 0;
  size_t trigger_ = 0;  // first part of the newest instant; its firing schedules the next
};

}  // namespace nestsim

#endif  // NESTSIM_SRC_CLUSTER_ARRIVAL_FEED_H_
