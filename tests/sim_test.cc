#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/simulator.h"
#include "src/util/random.h"

namespace hib {
namespace {

// --------------------------------------------------------- EventQueue ------

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.Schedule(Ms(30.0), [&] { fired.push_back(3); });
  q.Schedule(Ms(10.0), [&] { fired.push_back(1); });
  q.Schedule(Ms(20.0), [&] { fired.push_back(2); });
  SimTime now;
  while (!q.empty()) {
    q.FireNext(&now);
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.Schedule(Ms(5.0), [&fired, i] { fired.push_back(i); });
  }
  SimTime now;
  while (!q.empty()) {
    q.FireNext(&now);
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  EventId id = q.Schedule(Ms(1.0), [&] { fired = true; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  EventId id = q.Schedule(Ms(1.0), [] {});
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));
}

TEST(EventQueue, CancelAfterFireFails) {
  EventQueue q;
  EventId id = q.Schedule(Ms(1.0), [] {});
  SimTime now;
  q.FireNext(&now);
  EXPECT_FALSE(q.Cancel(id));
}

TEST(EventQueue, CancelUnknownIdFails) {
  EventQueue q;
  EXPECT_FALSE(q.Cancel(9999));
}

TEST(EventQueue, CancelMiddleKeepsOthers) {
  EventQueue q;
  std::vector<int> fired;
  q.Schedule(Ms(1.0), [&] { fired.push_back(1); });
  EventId mid = q.Schedule(Ms(2.0), [&] { fired.push_back(2); });
  q.Schedule(Ms(3.0), [&] { fired.push_back(3); });
  q.Cancel(mid);
  EXPECT_EQ(q.size(), 2u);
  SimTime now;
  while (!q.empty()) {
    q.FireNext(&now);
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(EventQueue, NextTimeSkipsCancelledHead) {
  EventQueue q;
  EventId head = q.Schedule(Ms(1.0), [] {});
  q.Schedule(Ms(2.0), [] {});
  q.Cancel(head);
  EXPECT_DOUBLE_EQ(q.NextTime().value(), 2.0);
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  EXPECT_EQ(q.size(), 0u);
  EventId a = q.Schedule(Ms(1.0), [] {});
  q.Schedule(Ms(2.0), [] {});
  EXPECT_EQ(q.size(), 2u);
  q.Cancel(a);
  EXPECT_EQ(q.size(), 1u);
  SimTime now;
  q.FireNext(&now);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StaleIdCannotCancelSlotReuse) {
  EventQueue q;
  EventId a = q.Schedule(Ms(5.0), [] {});
  ASSERT_TRUE(q.Cancel(a));
  // b reuses a's arena slot but carries a fresh generation; a's id is dead.
  bool b_fired = false;
  EventId b = q.Schedule(Ms(6.0), [&] { b_fired = true; });
  EXPECT_FALSE(q.Cancel(a));
  ASSERT_EQ(q.size(), 1u);
  SimTime now;
  q.FireNext(&now);
  EXPECT_TRUE(b_fired);
  EXPECT_DOUBLE_EQ(now.value(), 6.0);
  EXPECT_FALSE(q.Cancel(b));  // fired: b's id is dead too
}

TEST(EventQueue, ManyEqualTimestampsFireInInsertionOrder) {
  // Large batch with only a handful of distinct timestamps: drives the whole
  // backlog through the two-tier refill/sort machinery and checks that ties
  // still resolve by insertion order end to end.
  EventQueue q;
  const int kEvents = 6000;
  std::vector<int> fired;
  fired.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    q.Schedule(Ms(i % 5), [i, &fired] { fired.push_back(i); });
  }
  SimTime now;
  while (!q.empty()) {
    q.FireNext(&now);
  }
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(kEvents));
  for (std::size_t i = 1; i < fired.size(); ++i) {
    int prev_time = fired[i - 1] % 5;
    int cur_time = fired[i] % 5;
    ASSERT_LE(prev_time, cur_time) << "timestamp order broken at pop " << i;
    if (prev_time == cur_time) {
      ASSERT_LT(fired[i - 1], fired[i]) << "FIFO tie-break broken at pop " << i;
    }
  }
}

// Differential test: the queue against a naive reference model (an unsorted
// vector popped by linear min-scan), over ~100k randomized Schedule / Cancel /
// FireNext ops.  Every pop must agree on time and payload; every cancel must
// agree on its return value.  Batched phases push traffic through refills,
// spills, the radix sort, and the stale-entry purge.
TEST(EventQueue, DifferentialAgainstNaiveReference) {
  struct RefEvent {
    SimTime time;
    std::uint64_t seq;
    int value;
    EventId id;
  };
  EventQueue q;
  std::vector<RefEvent> ref;
  std::vector<int> got;
  std::uint64_t next_seq = 1;
  Pcg32 rng(20260806);

  auto schedule = [&](SimTime t) {
    int value = static_cast<int>(next_seq);
    EventId id = q.Schedule(t, [value, &got] { got.push_back(value); });
    ref.push_back(RefEvent{t, next_seq++, value, id});
  };
  auto ref_min = [&]() {
    std::size_t best = 0;
    for (std::size_t i = 1; i < ref.size(); ++i) {
      if (ref[i].time < ref[best].time ||
          (ref[i].time == ref[best].time && ref[i].seq < ref[best].seq)) {
        best = i;
      }
    }
    return best;
  };
  auto pop_both = [&]() {
    ASSERT_FALSE(q.empty());
    std::size_t best = ref_min();
    got.clear();
    SimTime now;
    q.FireNext(&now);
    ASSERT_EQ(now, ref[best].time);
    ASSERT_EQ(got.size(), 1u);
    ASSERT_EQ(got[0], ref[best].value);
    ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(best));
  };

  // Phase 1: random interleaving at a modest live depth.
  for (int op = 0; op < 60000; ++op) {
    double r = rng.NextDouble();
    if (ref.empty() || r < 0.42) {
      // Quantized times produce frequent exact ties.
      schedule(Ms(std::floor(rng.NextDouble() * 512.0)));
    } else if (r < 0.55) {
      std::size_t pick =
          static_cast<std::size_t>(rng.NextDouble() * static_cast<double>(ref.size()));
      pick = std::min(pick, ref.size() - 1);
      ASSERT_TRUE(q.Cancel(ref[pick].id));
      ASSERT_FALSE(q.Cancel(ref[pick].id));  // second cancel must fail
      ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      pop_both();
    }
    ASSERT_EQ(q.size(), ref.size());
  }

  // Phase 2: a burst larger than any internal batch cap, a third cancelled,
  // then a full drain.
  for (int i = 0; i < 6000; ++i) {
    schedule(Ms(std::floor(rng.NextDouble() * 64.0)));
  }
  for (int i = 0; i < 2000; ++i) {
    std::size_t pick =
        static_cast<std::size_t>(rng.NextDouble() * static_cast<double>(ref.size()));
    pick = std::min(pick, ref.size() - 1);
    ASSERT_TRUE(q.Cancel(ref[pick].id));
    ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  while (!ref.empty()) {
    pop_both();
  }
  EXPECT_TRUE(q.empty());
}

// ---------------------------------------------------------- Simulator ------

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<SimTime> seen;
  sim.ScheduleIn(Ms(10.0), [&] { seen.push_back(sim.Now()); });
  sim.ScheduleIn(Ms(5.0), [&] { seen.push_back(sim.Now()); });
  sim.RunUntil();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_DOUBLE_EQ(seen[0].value(), 5.0);
  EXPECT_DOUBLE_EQ(seen[1].value(), 10.0);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleIn(Ms(10.0), [&] { ++fired; });
  sim.ScheduleIn(Ms(20.0), [&] { ++fired; });
  sim.RunUntil(Ms(15.0));
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.Now().value(), 15.0);
  sim.RunUntil(Ms(25.0));
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventsScheduledDuringRunFire) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) {
      sim.ScheduleIn(Ms(1.0), recurse);
    }
  };
  sim.ScheduleIn(Ms(1.0), recurse);
  sim.RunUntil(Ms(100.0));
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.events_fired(), 5u);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.ScheduleIn(Ms(10.0), [] {});
  sim.RunUntil(Ms(10.0));
  bool fired = false;
  sim.ScheduleIn(Ms(-5.0), [&] { fired = true; });
  sim.RunUntil(Ms(10.0));
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(sim.Now().value(), 10.0);
}

TEST(Simulator, ScheduleAtPastClampsToNow) {
  Simulator sim;
  sim.ScheduleIn(Ms(10.0), [] {});
  sim.RunUntil();
  SimTime fired_at = Ms(-1.0);
  sim.ScheduleAt(Ms(3.0), [&] { fired_at = sim.Now(); });
  sim.RunUntil();
  EXPECT_DOUBLE_EQ(fired_at.value(), 10.0);
}

TEST(Simulator, CancelStopsEvent) {
  Simulator sim;
  bool fired = false;
  EventId id = sim.ScheduleIn(Ms(5.0), [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.RunUntil(Ms(10.0));
  EXPECT_FALSE(fired);
}

TEST(Simulator, PeriodicFiresAtPeriod) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.SchedulePeriodic(Ms(10.0), Ms(10.0), [&] { times.push_back(sim.Now()); });
  sim.RunUntil(Ms(45.0));
  ASSERT_EQ(times.size(), 4u);
  EXPECT_DOUBLE_EQ(times[0].value(), 10.0);
  EXPECT_DOUBLE_EQ(times[3].value(), 40.0);
}

TEST(Simulator, MultiplePeriodicsIndependent) {
  Simulator sim;
  int fast = 0;
  int slow = 0;
  sim.SchedulePeriodic(Ms(1.0), Ms(1.0), [&] { ++fast; });
  sim.SchedulePeriodic(Ms(5.0), Ms(5.0), [&] { ++slow; });
  sim.RunUntil(Ms(20.5));
  EXPECT_EQ(fast, 20);
  EXPECT_EQ(slow, 4);
}

TEST(Simulator, StepFiresOne) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleIn(Ms(1.0), [&] { ++fired; });
  sim.ScheduleIn(Ms(2.0), [&] { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilAdvancesClockToBoundEvenWhenIdle) {
  Simulator sim;
  sim.RunUntil(Ms(1234.0));
  EXPECT_DOUBLE_EQ(sim.Now().value(), 1234.0);
}

TEST(Simulator, ReturnsEventsFiredCount) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) {
    sim.ScheduleIn(Ms(i), [] {});
  }
  EXPECT_EQ(sim.RunUntil(Ms(100.0)), 7u);
}

}  // namespace
}  // namespace hib
