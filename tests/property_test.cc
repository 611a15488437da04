// Parameterized property tests: invariants swept across configuration axes.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "src/array/array.h"
#include "src/array/layout.h"
#include "src/disk/disk.h"
#include "src/harness/experiment.h"
#include "src/hibernator/cr_algorithm.h"
#include "src/hibernator/hibernator_policy.h"
#include "src/queueing/mg1.h"
#include "src/sim/simulator.h"
#include "src/trace/synthetic.h"
#include "src/util/random.h"

namespace hib {
namespace {

// ---------------------- energy conservation across every speed level -------

class DiskEnergyAtLevel : public ::testing::TestWithParam<int> {};

TEST_P(DiskEnergyAtLevel, LedgerBalancesAtEveryLevel) {
  int level = GetParam();
  Simulator sim;
  DiskParams params = MakeUltrastar36Z15MultiSpeed(5);
  Disk disk(&sim, params, 0, 11);
  disk.SetTargetRpm(params.speeds[static_cast<std::size_t>(level)].rpm);
  sim.RunUntil(Seconds(30.0));
  ASSERT_EQ(disk.current_level(), level);

  for (int i = 0; i < 40; ++i) {
    DiskRequest req;
    req.sector = (i * 977 * 4096) % params.TotalSectors();
    req.count = 16;
    req.is_write = (i % 3 == 0);
    disk.Submit(std::move(req));
  }
  sim.RunUntil(Seconds(600.0));

  DiskEnergy e = disk.MeteredEnergy();
  // Ledger closes: total time fully attributed.
  EXPECT_NEAR(e.TotalMs().value(), Seconds(600.0).value(), 1e-6);
  // Idle segments drew exactly the level's idle power.
  const SpeedLevel& lvl = params.speeds[static_cast<std::size_t>(level)];
  Joules idle_expected = EnergyOf(lvl.idle_power, e.idle_ms);
  // Idle before the transition was at 15k; allow that prefix.
  EXPECT_GE(e.idle + Joules(1e-9), idle_expected * 0.99);
  // Busy time drew active power of some level in range.
  EXPECT_LE(e.active, EnergyOf(params.speeds.back().active_power, e.active_ms) + Joules(1e-6));
  EXPECT_GE(e.active, EnergyOf(params.speeds.front().active_power, e.active_ms) - Joules(1e-6));
  EXPECT_EQ(disk.stats().requests_completed, 40);
}

INSTANTIATE_TEST_SUITE_P(AllLevels, DiskEnergyAtLevel, ::testing::Range(0, 5));

// ------------------------- layout mapping invariants across widths ---------

class LayoutWidth : public ::testing::TestWithParam<int> {};

TEST_P(LayoutWidth, MappingInvariants) {
  int width = GetParam();
  LayoutParams lp;
  lp.num_disks = 8;
  lp.group_width = width;
  lp.num_extents = 512;
  lp.extent_sectors = 2048;
  lp.stripe_unit_sectors = 128;
  lp.disk_capacity_sectors = 5'000'000;
  LayoutManager layout(lp);

  for (std::int64_t e = 0; e < lp.num_extents; e += 37) {
    int group = layout.GroupOf(e);
    for (SectorAddr off = 0; off < lp.extent_sectors; off += lp.stripe_unit_sectors) {
      StripeTarget t = layout.Map(e, off);
      // Data disk always inside the owning group.
      EXPECT_GE(t.data_disk, group * width);
      EXPECT_LT(t.data_disk, (group + 1) * width);
      if (width == 1) {
        EXPECT_EQ(t.parity_disk, -1);
      } else {
        EXPECT_NE(t.parity_disk, t.data_disk);
        EXPECT_GE(t.parity_disk, group * width);
        EXPECT_LT(t.parity_disk, (group + 1) * width);
      }
      // Physical sectors inside the disk.
      EXPECT_GE(t.data_sector, 0);
      EXPECT_LT(t.data_sector, lp.disk_capacity_sectors);
    }
  }
}

TEST_P(LayoutWidth, MigrationRoundTripRestoresMapping) {
  int width = GetParam();
  LayoutParams lp;
  lp.num_disks = 8;
  lp.group_width = width;
  lp.num_extents = 64;
  lp.extent_sectors = 2048;
  lp.stripe_unit_sectors = 128;
  lp.disk_capacity_sectors = 5'000'000;
  LayoutManager layout(lp);
  int groups = layout.num_groups();
  if (groups < 2) {
    GTEST_SKIP() << "needs two groups";
  }
  StripeTarget before = layout.Map(0, 256);
  layout.SetGroup(0, 1);
  StripeTarget moved = layout.Map(0, 256);
  EXPECT_NE(moved.data_disk, before.data_disk);
  layout.SetGroup(0, 0);
  StripeTarget restored = layout.Map(0, 256);
  EXPECT_EQ(restored.data_disk, before.data_disk);
  EXPECT_EQ(restored.data_sector, before.data_sector);
}

INSTANTIATE_TEST_SUITE_P(Widths, LayoutWidth, ::testing::Values(1, 2, 4, 8));

// ---------------------------- queueing model orderings ---------------------

class Gg1Burstiness : public ::testing::TestWithParam<double> {};

TEST_P(Gg1Burstiness, BurstierNeverFaster) {
  double ca2 = GetParam();
  Duration s = Ms(10.0);
  double cs2 = 0.3;
  for (double rho : {0.1, 0.4, 0.8}) {
    Frequency lambda = rho / s;
    Duration bursty = Mg1Model::Gg1ResponseTime(lambda, s, cs2, ca2);
    Duration poisson = Mg1Model::Gg1ResponseTime(lambda, s, cs2, 1.0);
    if (ca2 >= 1.0) {
      EXPECT_GE(bursty, poisson - Ms(1e-12)) << "rho=" << rho;
    } else {
      EXPECT_LE(bursty, poisson + Ms(1e-12)) << "rho=" << rho;
    }
    // Poisson case collapses to M/G/1 exactly.
    EXPECT_NEAR(Mg1Model::Gg1ResponseTime(lambda, s, cs2, 1.0).value(),
                Mg1Model::ResponseTime(lambda, s, cs2).value(), 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(ArrivalScv, Gg1Burstiness,
                         ::testing::Values(0.0, 0.5, 1.0, 2.0, 8.0, 40.0));

// --------------------------- scramble bijectivity sweep --------------------

class ScrambleSpace : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(ScrambleSpace, Bijective) {
  std::int64_t n = GetParam();
  std::set<std::int64_t> seen;
  for (std::int64_t r = 0; r < n; ++r) {
    seen.insert(ScrambleRank(r, n));
  }
  EXPECT_EQ(static_cast<std::int64_t>(seen.size()), n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScrambleSpace,
                         ::testing::Values(1, 3, 64, 1000, 65536, 99991));

// ----------------- CR: goal multiplier sweep on a live simulation ----------

class HibernatorGoalSweep : public ::testing::TestWithParam<double> {};

TEST_P(HibernatorGoalSweep, CumulativeMeanStaysNearGoal) {
  double multiplier = GetParam();
  Simulator sim;
  ArrayParams ap;
  ap.num_disks = 8;
  ap.group_width = 4;
  ap.disk = MakeUltrastar36Z15MultiSpeed(5);
  ap.data_fraction = 0.05;
  ap.cache_lines = 0;
  ArrayController array(&sim, ap);

  Duration base_response = Ms(7.0);  // approximate; the goal just scales with it
  HibernatorParams hp;
  hp.goal_ms = multiplier * base_response;
  hp.epoch_ms = Hours(0.5);
  HibernatorPolicy* policy = new HibernatorPolicy(hp);  // owned below
  std::unique_ptr<PowerPolicy> owner(policy);
  policy->Attach(&sim, &array);

  OltpWorkloadParams wp;
  wp.address_space_sectors = ap.DataSectors();
  wp.duration_ms = Hours(3.0);
  wp.peak_iops = 60.0;
  wp.trough_iops = 30.0;
  OltpWorkload workload(wp);
  TraceInjector injector(&sim, &array, &workload);
  injector.Start();
  sim.RunUntil(Hours(3.0) + Seconds(30.0));

  // The credit account bounds the cumulative mean near the goal (the bank
  // starts empty, so overspending is impossible; small overshoot can persist
  // only inside a not-yet-repaid boost window).
  EXPECT_LE(array.stats().CumulativeMeanResponse(), hp.goal_ms * 1.10)
      << "multiplier=" << multiplier;
}

INSTANTIATE_TEST_SUITE_P(Multipliers, HibernatorGoalSweep,
                         ::testing::Values(1.5, 2.0, 2.5, 3.0, 4.0));

}  // namespace
}  // namespace hib
