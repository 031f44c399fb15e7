#include "sim/simulator.hpp"

#include <algorithm>

#include "obs/profiler.hpp"
#include "util/require.hpp"

namespace wmsn::sim {

namespace {
// Heap comparator: "fires later". std::*_heap keep the greatest element at
// the front, so ordering by lateness puts the earliest (time, seq) there.
struct FiresLater {
  template <typename E>
  bool operator()(const E& a, const E& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};
}  // namespace

void Simulator::schedule(Time delay, std::function<void()> action) {
  WMSN_REQUIRE_MSG(delay.us >= 0, "cannot schedule into the past");
  push(now_ + delay, std::move(action));
}

void Simulator::scheduleAt(Time when, std::function<void()> action) {
  WMSN_REQUIRE_MSG(when >= now_, "cannot schedule into the past");
  push(when, std::move(action));
}

void Simulator::push(Time when, std::function<void()> action) {
  WMSN_REQUIRE(action != nullptr);
  heap_.push_back(Event{when, nextSeq_++, std::move(action)});
  std::push_heap(heap_.begin(), heap_.end(), FiresLater{});
}

void Simulator::dispatchOne() {
  std::pop_heap(heap_.begin(), heap_.end(), FiresLater{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  now_ = ev.time;
  ++eventsProcessed_;
  WMSN_PROFILE_PHASE(kEventDispatch);
  ev.action();
}

void Simulator::run() {
  while (!heap_.empty()) dispatchOne();
}

void Simulator::runUntil(Time deadline) {
  while (!heap_.empty() && heap_.front().time <= deadline) dispatchOne();
  if (now_ < deadline) now_ = deadline;
}

}  // namespace wmsn::sim
