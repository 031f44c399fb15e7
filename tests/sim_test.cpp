#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "util/require.hpp"

namespace wmsn::sim {
namespace {

TEST(Time, ArithmeticAndConversions) {
  const Time a = Time::seconds(1.5);
  EXPECT_EQ(a.us, 1'500'000);
  EXPECT_DOUBLE_EQ(a.seconds(), 1.5);
  EXPECT_DOUBLE_EQ(a.millis(), 1500.0);
  EXPECT_EQ((a + Time::milliseconds(500)).us, 2'000'000);
  EXPECT_EQ((a - Time::microseconds(500'000)).us, 1'000'000);
  EXPECT_LT(Time::zero(), a);
}

TEST(Simulator, OrdersByTime) {
  Simulator sim;
  std::vector<int> fired;
  sim.schedule(Time{30}, [&] { fired.push_back(3); });
  sim.schedule(Time{10}, [&] { fired.push_back(1); });
  sim.schedule(Time{20}, [&] { fired.push_back(2); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, StableFifoAtSameTimestamp) {
  Simulator sim;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i)
    sim.schedule(Time{5}, [&fired, i] { fired.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
}

TEST(Simulator, ScheduledNowFromHandlerFiresAfterQueuedPeers) {
  Simulator sim;
  std::vector<int> fired;
  sim.schedule(Time{5}, [&] {
    fired.push_back(0);
    sim.schedule(Time::zero(), [&] { fired.push_back(9); });
  });
  for (int i = 1; i <= 3; ++i)
    sim.schedule(Time{5}, [&fired, i] { fired.push_back(i); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 9}));
}

TEST(Simulator, RunOnEmptyIsNoOp) {
  Simulator sim;
  sim.run();
  EXPECT_EQ(sim.now().us, 0);
  EXPECT_EQ(sim.eventsProcessed(), 0u);
  EXPECT_EQ(sim.queueSize(), 0u);
}

TEST(Simulator, EmptyActionThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule(Time{1}, std::function<void()>{}),
               PreconditionError);
  EXPECT_EQ(sim.queueSize(), 0u);
}

TEST(Simulator, FiredActionsAreReleased) {
  Simulator sim;
  auto token = std::make_shared<int>(0);
  for (int i = 1; i <= 3; ++i) sim.schedule(Time{i}, [token] { ++*token; });
  EXPECT_EQ(token.use_count(), 4);
  sim.run();
  EXPECT_EQ(*token, 3);
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(sim.queueSize(), 0u);
}

TEST(Simulator, AdvancesClockToEventTime) {
  Simulator sim;
  Time seen = Time::zero();
  sim.schedule(Time{100}, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen.us, 100);
  EXPECT_EQ(sim.now().us, 100);
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  std::vector<std::int64_t> times;
  sim.schedule(Time{10}, [&] {
    times.push_back(sim.now().us);
    sim.schedule(Time{5}, [&] { times.push_back(sim.now().us); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<std::int64_t>{10, 15}));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  for (int i = 1; i <= 10; ++i)
    sim.schedule(Time{i * 10}, [&] { ++fired; });
  sim.runUntil(Time{50});
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.now().us, 50);
  sim.runUntil(Time{100});
  EXPECT_EQ(fired, 10);
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator sim;
  sim.runUntil(Time{1234});
  EXPECT_EQ(sim.now().us, 1234);
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule(Time{10}, [] {});
  sim.run();
  EXPECT_THROW(sim.scheduleAt(Time{5}, [] {}), PreconditionError);
  EXPECT_THROW(sim.schedule(Time{-1}, [] {}), PreconditionError);
}

TEST(Simulator, CountsEventsProcessed) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule(Time{i + 1}, [] {});
  sim.run();
  EXPECT_EQ(sim.eventsProcessed(), 5u);
}

TEST(Simulator, DeterministicInterleaving) {
  // Two identical simulations produce the same event count and final time.
  auto runOnce = [] {
    Simulator sim;
    std::uint64_t sum = 0;
    std::function<void(int)> spawn = [&](int depth) {
      sum += static_cast<std::uint64_t>(sim.now().us);
      if (depth < 6)
        for (int i = 1; i <= 2; ++i)
          sim.schedule(Time{i * 3}, [&spawn, depth] { spawn(depth + 1); });
    };
    sim.schedule(Time{1}, [&] { spawn(0); });
    sim.run();
    return std::make_pair(sum, sim.eventsProcessed());
  };
  EXPECT_EQ(runOnce(), runOnce());
}

}  // namespace
}  // namespace wmsn::sim
