#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/disk/disk_params.h"
#include "src/queueing/mg1.h"

namespace hib {
namespace {

// ------------------------------------------------------------ Mg1Model -----

TEST(Mg1, UtilizationIsLambdaTimesService) {
  EXPECT_DOUBLE_EQ(Mg1Model::Utilization(PerMs(0.05), Ms(10.0)), 0.5);
  EXPECT_DOUBLE_EQ(Mg1Model::Utilization(Frequency{}, Ms(10.0)), 0.0);
}

TEST(Mg1, ZeroLoadResponseIsServiceTime) {
  EXPECT_DOUBLE_EQ(Mg1Model::ResponseTime(Frequency{}, Ms(8.0), 0.5).value(), 8.0);
  EXPECT_DOUBLE_EQ(Mg1Model::WaitTime(Frequency{}, Ms(8.0), 0.5).value(), 0.0);
}

TEST(Mg1, MatchesMm1WhenScvIsOne) {
  // M/M/1: R = S / (1 - rho).
  Duration s = Ms(10.0);
  for (double rho : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    Frequency lambda = rho / s;
    EXPECT_NEAR(Mg1Model::ResponseTime(lambda, s, 1.0).value(), (s / (1.0 - rho)).value(), 1e-9)
        << "rho=" << rho;
  }
}

TEST(Mg1, MatchesMd1WhenScvIsZero) {
  // M/D/1: W = rho S / (2 (1 - rho)).
  Duration s = Ms(10.0);
  double rho = 0.6;
  Frequency lambda = rho / s;
  EXPECT_NEAR(Mg1Model::WaitTime(lambda, s, 0.0).value(),
              (s * (rho / (2.0 * (1.0 - rho)))).value(), 1e-9);
}

TEST(Mg1, DivergesAtSaturation) {
  EXPECT_TRUE(std::isinf(Mg1Model::ResponseTime(PerMs(0.1), Ms(10.0), 1.0).value()));  // rho = 1
  EXPECT_TRUE(std::isinf(Mg1Model::ResponseTime(PerMs(0.2), Ms(10.0), 1.0).value()));  // rho = 2
}

TEST(Mg1, MonotoneInLambda) {
  Duration prev;
  for (double lambda = 0.0; lambda < 0.099; lambda += 0.01) {
    Duration r = Mg1Model::ResponseTime(PerMs(lambda), Ms(10.0), 0.8);
    EXPECT_GE(r, prev);
    prev = r;
  }
}

TEST(Mg1, MonotoneInScv) {
  EXPECT_LT(Mg1Model::ResponseTime(PerMs(0.05), Ms(10.0), 0.2),
            Mg1Model::ResponseTime(PerMs(0.05), Ms(10.0), 2.0));
}

// ---------------------------------------------------- SpeedServiceModel ----

TEST(SpeedServiceModel, OneEntryPerLevel) {
  DiskParams disk = MakeUltrastar36Z15MultiSpeed(5);
  SpeedServiceModel m = SpeedServiceModel::FromDisk(disk, 12.0, 0.3);
  EXPECT_EQ(m.num_levels(), 5);
  for (int k = 0; k < 5; ++k) {
    EXPECT_EQ(m.Level(k).rpm, disk.speeds[static_cast<std::size_t>(k)].rpm);
  }
}

TEST(SpeedServiceModel, ServiceTimeDecreasesWithRpm) {
  DiskParams disk = MakeUltrastar36Z15MultiSpeed(5);
  SpeedServiceModel m = SpeedServiceModel::FromDisk(disk, 12.0, 0.3);
  for (int k = 1; k < m.num_levels(); ++k) {
    EXPECT_LT(m.Level(k).mean_ms, m.Level(k - 1).mean_ms);
  }
}

TEST(SpeedServiceModel, FullSpeedServiceIsPlausible) {
  // 3.4 ms seek + 2 ms rotation + small transfer => ~5.5-6 ms.
  DiskParams disk = MakeUltrastar36Z15MultiSpeed(5);
  SpeedServiceModel m = SpeedServiceModel::FromDisk(disk, 8.0, 0.0);
  EXPECT_GT(m.Level(4).mean_ms, Ms(5.0));
  EXPECT_LT(m.Level(4).mean_ms, Ms(7.0));
  // 3k rpm: 3.4 + 10 + transfer => ~14 ms.
  EXPECT_GT(m.Level(0).mean_ms, Ms(13.0));
  EXPECT_LT(m.Level(0).mean_ms, Ms(16.0));
}

TEST(SpeedServiceModel, ScvPositiveAndBounded) {
  DiskParams disk = MakeUltrastar36Z15MultiSpeed(5);
  SpeedServiceModel m = SpeedServiceModel::FromDisk(disk, 12.0, 0.3);
  for (int k = 0; k < m.num_levels(); ++k) {
    EXPECT_GT(m.Level(k).scv, 0.0);
    EXPECT_LT(m.Level(k).scv, 1.0);  // disk service is less variable than exp
  }
}

TEST(SpeedServiceModel, WriteFractionAddsSettle) {
  DiskParams disk = MakeUltrastar36Z15MultiSpeed(5);
  SpeedServiceModel reads = SpeedServiceModel::FromDisk(disk, 8.0, 0.0);
  SpeedServiceModel writes = SpeedServiceModel::FromDisk(disk, 8.0, 1.0);
  EXPECT_NEAR((writes.Level(4).mean_ms - reads.Level(4).mean_ms).value(),
              disk.write_settle_ms.value(), 1e-9);
}

TEST(SpeedServiceModel, LargerRequestsSlower) {
  DiskParams disk = MakeUltrastar36Z15MultiSpeed(5);
  SpeedServiceModel small = SpeedServiceModel::FromDisk(disk, 8.0, 0.3);
  SpeedServiceModel large = SpeedServiceModel::FromDisk(disk, 256.0, 0.3);
  EXPECT_GT(large.Level(4).mean_ms, small.Level(4).mean_ms);
}

}  // namespace
}  // namespace hib
