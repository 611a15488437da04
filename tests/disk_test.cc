#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/disk/disk.h"
#include "src/disk/disk_params.h"
#include "src/sim/simulator.h"

namespace hib {
namespace {

DiskParams TestDisk(int levels = 5) { return MakeUltrastar36Z15MultiSpeed(levels); }

// ---------------------------------------------------------- SeekModel ------

TEST(SeekModel, ZeroDistanceIsFree) {
  SeekModel seek{Ms(0.6), Ms(3.4), Ms(6.5)};
  EXPECT_DOUBLE_EQ(seek.SeekTime(0, 10000).value(), 0.0);
}

TEST(SeekModel, SingleCylinderCost) {
  SeekModel seek{Ms(0.6), Ms(3.4), Ms(6.5)};
  EXPECT_NEAR(seek.SeekTime(1, 10000).value(), 0.6, 0.2);
}

TEST(SeekModel, AverageAtThirdStroke) {
  SeekModel seek{Ms(0.6), Ms(3.4), Ms(6.5)};
  std::int64_t cyls = 15000;
  EXPECT_NEAR(seek.SeekTime(cyls / 3, cyls).value(), 3.4, 0.01);
}

TEST(SeekModel, FullStrokeAtMaxDistance) {
  SeekModel seek{Ms(0.6), Ms(3.4), Ms(6.5)};
  std::int64_t cyls = 15000;
  EXPECT_NEAR(seek.SeekTime(cyls - 1, cyls).value(), 6.5, 0.01);
}

TEST(SeekModel, MonotoneInDistance) {
  SeekModel seek{Ms(0.6), Ms(3.4), Ms(6.5)};
  std::int64_t cyls = 15110;
  Duration prev;
  for (std::int64_t d = 1; d < cyls; d += 97) {
    Duration t = seek.SeekTime(d, cyls);
    EXPECT_GE(t, prev);
    prev = t;
  }
}

// ---------------------------------------------------------- DiskParams -----

TEST(DiskParams, UltrastarValidates) {
  for (int levels : {1, 2, 3, 5, 13, kUltrastarMaxSpeedLevels}) {
    DiskParams p = MakeUltrastar36Z15MultiSpeed(levels);
    EXPECT_EQ(p.Validate(), "") << "levels=" << levels;
    EXPECT_EQ(p.num_speeds(), levels);
  }
}

TEST(DiskParams, FiveLevelRpmLadder) {
  DiskParams p = TestDisk(5);
  std::vector<int> rpms;
  for (const auto& s : p.speeds) {
    rpms.push_back(s.rpm);
  }
  EXPECT_EQ(rpms, (std::vector<int>{3000, 6000, 9000, 12000, 15000}));
}

TEST(DiskParams, PowerIncreasesWithRpm) {
  DiskParams p = TestDisk(5);
  for (std::size_t i = 1; i < p.speeds.size(); ++i) {
    EXPECT_GT(p.speeds[i].idle_power, p.speeds[i - 1].idle_power);
    EXPECT_GT(p.speeds[i].active_power, p.speeds[i - 1].active_power);
  }
}

TEST(DiskParams, TopLevelMatchesUltrastarSpec) {
  DiskParams p = TestDisk(5);
  EXPECT_EQ(p.max_rpm(), 15000);
  EXPECT_NEAR(p.speeds.back().idle_power.value(), 10.2, 1e-9);
  EXPECT_NEAR(p.speeds.back().active_power.value(), 13.5, 1e-9);
}

TEST(DiskParams, PowerLawExponent) {
  // Spindle (above electronics floor) scales as (rpm/max)^2.8.
  Watts p12k = IdlePowerAtRpm(12000, 15000, Watts(10.2));
  double expected = 2.5 + (10.2 - 2.5) * std::pow(12000.0 / 15000.0, 2.8);
  EXPECT_NEAR(p12k.value(), expected, 1e-9);
}

TEST(DiskParams, LevelOf) {
  DiskParams p = TestDisk(5);
  EXPECT_EQ(p.LevelOf(3000), 0);
  EXPECT_EQ(p.LevelOf(15000), 4);
  EXPECT_EQ(p.LevelOf(4000), -1);
}

TEST(DiskParams, TransferScalesInverselyWithRpm) {
  DiskParams p = TestDisk(5);
  Duration slow = p.TransferTime(128, 3000);
  Duration fast = p.TransferTime(128, 15000);
  EXPECT_NEAR(slow / fast, 5.0, 1e-9);
  EXPECT_DOUBLE_EQ(p.TransferTime(0, 15000).value(), 0.0);
}

TEST(DiskParams, TransferProportionalToSize) {
  DiskParams p = TestDisk(5);
  EXPECT_NEAR(p.TransferTime(256, 15000).value(), 2.0 * p.TransferTime(128, 15000).value(), 1e-12);
}

TEST(DiskParams, RevolutionTimes) {
  DiskParams p = TestDisk(5);
  EXPECT_DOUBLE_EQ(p.speeds.back().RevolutionMs().value(), 4.0);   // 15k rpm
  EXPECT_DOUBLE_EQ(p.speeds.front().RevolutionMs().value(), 20.0); // 3k rpm
}

TEST(DiskParams, TransitionTimeLinearInDelta) {
  DiskParams p = TestDisk(5);
  Duration one_step = p.RpmTransitionTime(3000, 6000);
  Duration four_steps = p.RpmTransitionTime(3000, 15000);
  EXPECT_NEAR(four_steps.value(), (4.0 * one_step).value(), 1e-9);
  EXPECT_DOUBLE_EQ(p.RpmTransitionTime(9000, 9000).value(), 0.0);
  EXPECT_EQ(p.RpmTransitionTime(3000, 9000), p.RpmTransitionTime(9000, 3000));
}

TEST(DiskParams, TransitionEnergyPositiveAndScales) {
  DiskParams p = TestDisk(5);
  EXPECT_GT(p.RpmTransitionEnergy(3000, 6000), Joules{});
  EXPECT_GT(p.RpmTransitionEnergy(3000, 15000), p.RpmTransitionEnergy(3000, 6000));
  EXPECT_DOUBLE_EQ(p.RpmTransitionEnergy(6000, 6000).value(), 0.0);
}

TEST(DiskParams, SpinUpScalesWithTarget) {
  DiskParams p = TestDisk(5);
  EXPECT_EQ(p.SpinUpTime(15000), p.spin_up_full_ms);
  EXPECT_NEAR(p.SpinUpTime(3000).value(), (p.spin_up_full_ms * 0.2).value(), 1e-9);
  EXPECT_EQ(p.SpinUpEnergy(15000), p.spin_up_full_energy);
  EXPECT_NEAR(p.SpinUpEnergy(3000).value(), (p.spin_up_full_energy * 0.04).value(), 1e-9);
}

TEST(DiskParams, ValidateCatchesBadGeometry) {
  DiskParams p = TestDisk(5);
  p.num_cylinders = 0;
  EXPECT_NE(p.Validate(), "");
}

TEST(DiskParams, ValidateCatchesUnsortedSpeeds) {
  DiskParams p = TestDisk(5);
  std::swap(p.speeds[0], p.speeds[4]);
  EXPECT_NE(p.Validate(), "");
}

TEST(DiskParams, ValidateCatchesNonMonotoneSeek) {
  DiskParams p = TestDisk(5);
  p.seek.full_stroke_ms = Ms(1.0);
  EXPECT_NE(p.Validate(), "");
}

// ---------------------------------------------------------------- Disk -----

class DiskTest : public ::testing::Test {
 protected:
  Simulator sim_;
  DiskParams params_ = TestDisk(5);
};

TEST_F(DiskTest, StartsIdleAtFullSpeed) {
  Disk disk(&sim_, params_, 0, 1);
  EXPECT_EQ(disk.state(), DiskPowerState::kIdle);
  EXPECT_EQ(disk.current_rpm(), 15000);
  EXPECT_TRUE(disk.FullyIdle());
}

TEST_F(DiskTest, ServesARequest) {
  Disk disk(&sim_, params_, 0, 1);
  bool completed = false;
  SimTime done_at;
  DiskRequest req;
  req.sector = 1000000;
  req.count = 8;
  req.on_complete = [&](SimTime t) {
    completed = true;
    done_at = t;
  };
  disk.Submit(std::move(req));
  sim_.RunUntil(Seconds(5.0));
  EXPECT_TRUE(completed);
  EXPECT_GT(done_at, SimTime{});
  EXPECT_EQ(disk.stats().requests_completed, 1);
  EXPECT_EQ(disk.stats().sectors_read, 8);
  EXPECT_TRUE(disk.FullyIdle());
}

TEST_F(DiskTest, ResponseAtLeastTransferTime) {
  Disk disk(&sim_, params_, 0, 1);
  SimTime done_at;
  DiskRequest req;
  req.sector = 0;
  req.count = 600;  // one full track
  req.on_complete = [&](SimTime t) { done_at = t; };
  disk.Submit(std::move(req));
  sim_.RunUntil(Seconds(5.0));
  EXPECT_GE(done_at, params_.TransferTime(600, 15000));
}

TEST_F(DiskTest, FcfsOrderWithinForeground) {
  Disk disk(&sim_, params_, 0, 1);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    DiskRequest req;
    req.sector = i * 100000;
    req.count = 8;
    req.on_complete = [&order, i](SimTime) { order.push_back(i); };
    disk.Submit(std::move(req));
  }
  sim_.RunUntil(Seconds(10.0));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_F(DiskTest, BackgroundWaitsForForeground) {
  Disk disk(&sim_, params_, 0, 1);
  std::vector<char> order;
  DiskRequest bg;
  bg.sector = 0;
  bg.count = 8;
  bg.background = true;
  bg.on_complete = [&](SimTime) { order.push_back('b'); };
  disk.Submit(std::move(bg));  // starts service immediately (disk idle)
  for (int i = 0; i < 3; ++i) {
    DiskRequest fg;
    fg.sector = 0;
    fg.count = 8;
    fg.on_complete = [&](SimTime) { order.push_back('f'); };
    disk.Submit(std::move(fg));
  }
  DiskRequest bg2;
  bg2.sector = 0;
  bg2.count = 8;
  bg2.background = true;
  bg2.on_complete = [&](SimTime) { order.push_back('B'); };
  disk.Submit(std::move(bg2));
  sim_.RunUntil(Seconds(10.0));
  // First bg was already in service; the queued bg2 must trail all fg.
  EXPECT_EQ(std::string(order.begin(), order.end()), "bfffB");
}

TEST_F(DiskTest, EnergyEqualsIdlePowerWhenIdle) {
  Disk disk(&sim_, params_, 0, 1);
  sim_.RunUntil(Seconds(100.0));
  DiskEnergy e = disk.MeteredEnergy();
  EXPECT_NEAR(e.idle.value(),
              EnergyOf(params_.speeds.back().idle_power, Seconds(100.0)).value(), 1e-6);
  EXPECT_DOUBLE_EQ(e.active.value(), 0.0);
  EXPECT_NEAR(e.TotalMs().value(), Seconds(100.0).value(), 1e-6);
}

TEST_F(DiskTest, EnergyLedgerMatchesStateTimes) {
  Disk disk(&sim_, params_, 0, 1);
  // Mixed activity: requests, a speed change, a spin-down/up cycle.
  for (int i = 0; i < 20; ++i) {
    DiskRequest req;
    req.sector = i * 1000000 % params_.TotalSectors();
    req.count = 64;
    disk.Submit(std::move(req));
  }
  sim_.RunUntil(Seconds(5.0));
  disk.SetTargetRpm(6000);
  sim_.RunUntil(Seconds(20.0));
  disk.SpinDown();
  sim_.RunUntil(Seconds(40.0));
  disk.Submit(DiskRequest{});  // a demand arrival wakes the disk
  sim_.RunUntil(Seconds(60.0));

  DiskEnergy e = disk.MeteredEnergy();
  EXPECT_NEAR(e.TotalMs().value(), Seconds(60.0).value(), 1e-6);
  EXPECT_GT(e.active, Joules{});
  EXPECT_GT(e.idle, Joules{});
  EXPECT_GT(e.standby, Joules{});
  EXPECT_GT(e.transition, Joules{});
  // Idle accrues at several distinct speeds; just verify the ledger is
  // internally consistent: total == sum of components.
  EXPECT_NEAR(e.Total().value(), (e.active + e.idle + e.standby + e.transition).value(), 1e-9);
}

TEST_F(DiskTest, SetTargetRpmChangesSpeedWhenIdle) {
  Disk disk(&sim_, params_, 0, 1);
  disk.SetTargetRpm(3000);
  EXPECT_EQ(disk.state(), DiskPowerState::kChangingRpm);
  sim_.RunUntil(Seconds(30.0));
  EXPECT_EQ(disk.current_rpm(), 3000);
  EXPECT_EQ(disk.state(), DiskPowerState::kIdle);
  EXPECT_EQ(disk.stats().rpm_changes, 1);
}

TEST_F(DiskTest, SetTargetRpmDeferredWhileBusy) {
  Disk disk(&sim_, params_, 0, 1);
  DiskRequest req;
  req.sector = 5000000;
  req.count = 8;
  disk.Submit(std::move(req));
  EXPECT_EQ(disk.state(), DiskPowerState::kBusy);
  disk.SetTargetRpm(6000);
  EXPECT_EQ(disk.state(), DiskPowerState::kBusy);  // not interrupted
  sim_.RunUntil(Seconds(30.0));
  EXPECT_EQ(disk.current_rpm(), 6000);
}

TEST_F(DiskTest, RequestsQueueDuringRpmChange) {
  Disk disk(&sim_, params_, 0, 1);
  disk.SetTargetRpm(3000);
  bool completed = false;
  DiskRequest req;
  req.sector = 0;
  req.count = 8;
  req.on_complete = [&](SimTime) { completed = true; };
  disk.Submit(std::move(req));
  EXPECT_FALSE(completed);
  sim_.RunUntil(Seconds(30.0));
  EXPECT_TRUE(completed);
  EXPECT_EQ(disk.current_rpm(), 3000);
}

TEST_F(DiskTest, RetargetDuringTransitionChains) {
  Disk disk(&sim_, params_, 0, 1);
  disk.SetTargetRpm(3000);
  sim_.RunUntil(Ms(100.0));  // mid-transition
  disk.SetTargetRpm(12000);
  sim_.RunUntil(Seconds(60.0));
  EXPECT_EQ(disk.current_rpm(), 12000);
  EXPECT_EQ(disk.stats().rpm_changes, 2);
}

TEST_F(DiskTest, SetSameRpmIsNoOp) {
  Disk disk(&sim_, params_, 0, 1);
  disk.SetTargetRpm(15000);
  EXPECT_EQ(disk.state(), DiskPowerState::kIdle);
  EXPECT_EQ(disk.stats().rpm_changes, 0);
}

TEST_F(DiskTest, SpinDownOnlyWhenIdle) {
  Disk disk(&sim_, params_, 0, 1);
  DiskRequest req;
  req.sector = 0;
  req.count = 8;
  disk.Submit(std::move(req));
  EXPECT_FALSE(disk.SpinDown());  // busy
  sim_.RunUntil(Seconds(5.0));
  EXPECT_TRUE(disk.SpinDown());
  sim_.RunUntil(Seconds(10.0));
  EXPECT_EQ(disk.state(), DiskPowerState::kStandby);
  EXPECT_EQ(disk.stats().spin_downs, 1);
}

TEST_F(DiskTest, StandbyDrawsStandbyPower) {
  Disk disk(&sim_, params_, 0, 1);
  disk.SpinDown();
  sim_.RunUntil(params_.spin_down_ms);  // exactly at standby entry
  DiskEnergy before = disk.MeteredEnergy();
  sim_.RunUntil(params_.spin_down_ms + Seconds(100.0));
  DiskEnergy after = disk.MeteredEnergy();
  EXPECT_NEAR((after.standby - before.standby).value(),
              EnergyOf(params_.standby_power, Seconds(100.0)).value(), 1e-6);
}

TEST_F(DiskTest, DemandSpinUpFromStandby) {
  Disk disk(&sim_, params_, 0, 1);
  disk.SpinDown();
  sim_.RunUntil(Seconds(10.0));
  ASSERT_EQ(disk.state(), DiskPowerState::kStandby);
  SimTime submitted_at = sim_.Now();
  SimTime done_at;
  DiskRequest req;
  req.sector = 0;
  req.count = 8;
  req.on_complete = [&](SimTime t) { done_at = t; };
  disk.Submit(std::move(req));
  sim_.RunUntil(Seconds(60.0));
  EXPECT_GT(done_at, SimTime{});
  // Must have paid the full-speed spin-up latency.
  EXPECT_GE(done_at - submitted_at, params_.SpinUpTime(15000));
  EXPECT_EQ(disk.stats().spin_ups, 1);
}

TEST_F(DiskTest, ArrivalDuringSpinDownWaitsThenSpinsUp) {
  Disk disk(&sim_, params_, 0, 1);
  disk.SpinDown();
  sim_.RunUntil(Ms(500.0));  // mid spin-down
  ASSERT_EQ(disk.state(), DiskPowerState::kSpinningDown);
  bool completed = false;
  DiskRequest req;
  req.sector = 0;
  req.count = 8;
  req.on_complete = [&](SimTime) { completed = true; };
  disk.Submit(std::move(req));
  sim_.RunUntil(Seconds(60.0));
  EXPECT_TRUE(completed);
  EXPECT_EQ(disk.stats().spin_ups, 1);
  EXPECT_EQ(disk.stats().spin_downs, 1);
}

TEST_F(DiskTest, SpinUpTargetsPendingRpm) {
  Disk disk(&sim_, params_, 0, 1);
  disk.SpinDown();
  sim_.RunUntil(Seconds(10.0));
  disk.SetTargetRpm(6000);  // while in standby
  disk.Submit(DiskRequest{});
  sim_.RunUntil(Seconds(60.0));
  EXPECT_EQ(disk.current_rpm(), 6000);
  EXPECT_EQ(disk.state(), DiskPowerState::kIdle);
}

TEST_F(DiskTest, WindowCountersAccumulateAndReset) {
  Disk disk(&sim_, params_, 0, 1);
  for (int i = 0; i < 4; ++i) {
    DiskRequest req;
    req.sector = 0;
    req.count = 8;
    disk.Submit(std::move(req));
  }
  sim_.RunUntil(Seconds(5.0));
  EXPECT_EQ(disk.stats().window_arrivals, 4);
  EXPECT_EQ(disk.stats().window_completions, 4);
  EXPECT_GT(disk.stats().window_busy_ms, Duration{});
  EXPECT_GT(disk.stats().window_response_sum_ms, Duration{});
  disk.stats().ResetWindow();
  EXPECT_EQ(disk.stats().window_arrivals, 0);
  EXPECT_DOUBLE_EQ(disk.stats().window_busy_ms.value(), 0.0);
}

TEST_F(DiskTest, WritesTrackSectorsWritten) {
  Disk disk(&sim_, params_, 0, 1);
  DiskRequest req;
  req.sector = 0;
  req.count = 16;
  req.is_write = true;
  disk.Submit(std::move(req));
  sim_.RunUntil(Seconds(5.0));
  EXPECT_EQ(disk.stats().sectors_written, 16);
  EXPECT_EQ(disk.stats().sectors_read, 0);
}

TEST_F(DiskTest, SlowSpeedSlowsService) {
  // The same request stream takes longer (per request) at 3k than at 15k.
  auto run_at = [&](int rpm) {
    Simulator sim;
    Disk disk(&sim, params_, 0, 7);
    disk.SetTargetRpm(rpm);
    sim.RunUntil(Seconds(30.0));
    for (int i = 0; i < 50; ++i) {
      DiskRequest req;
      req.sector = (i * 7919) * 1000 % params_.TotalSectors();
      req.count = 8;
      disk.Submit(std::move(req));
    }
    sim.RunUntil(Seconds(300.0));
    const LogLinearHistogram& service = sim.obs().metrics.GetHistogram("disk.service_ms");
    return service.sum() / static_cast<double>(service.count());
  };
  EXPECT_GT(run_at(3000), run_at(15000) * 1.8);
}

TEST(DiskPowerStateName, AllNamed) {
  EXPECT_STREQ(DiskPowerStateName(DiskPowerState::kIdle), "IDLE");
  EXPECT_STREQ(DiskPowerStateName(DiskPowerState::kBusy), "BUSY");
  EXPECT_STREQ(DiskPowerStateName(DiskPowerState::kStandby), "STANDBY");
  EXPECT_STREQ(DiskPowerStateName(DiskPowerState::kChangingRpm), "CHANGING_RPM");
}

}  // namespace
}  // namespace hib
