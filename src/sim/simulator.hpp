#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.hpp"

namespace wmsn::sim {

/// Discrete-event simulator: a clock plus a binary heap of timed callbacks.
/// Events at the same timestamp fire in insertion order (a sequence number
/// breaks ties), so a run never depends on heap-internal ordering.
/// Single-threaded by design — parallelism in the benchmark harness comes
/// from running many independent Simulator instances concurrently (one per
/// scenario/seed), which is both faster and deterministic.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  /// Schedule `action` to run `delay` after the current time.
  /// Requires delay >= 0 and a non-empty action.
  void schedule(Time delay, std::function<void()> action);

  /// Schedule `action` at an absolute time >= now().
  void scheduleAt(Time when, std::function<void()> action);

  /// Run until the queue drains.
  void run();

  /// Run until simulated time reaches `deadline` (events at exactly
  /// `deadline` still fire) or the queue drains. Afterwards
  /// now() == max(now, deadline).
  void runUntil(Time deadline);

  std::size_t queueSize() const { return heap_.size(); }
  std::uint64_t eventsProcessed() const { return eventsProcessed_; }

 private:
  struct Event {
    Time time;
    std::uint64_t seq;
    std::function<void()> action;
  };

  void push(Time when, std::function<void()> action);
  void dispatchOne();

  std::vector<Event> heap_;  ///< min-heap on (time, seq)
  Time now_ = Time::zero();
  std::uint64_t nextSeq_ = 0;
  std::uint64_t eventsProcessed_ = 0;
};

}  // namespace wmsn::sim
