// Tier-3 validator tests: the legal-transition table, the energy-ledger
// audit, the track lifecycle (index handles, strict detach), and death tests
// proving that injected violations (e.g. a disk jumping kStandby -> kBusy
// without spinning up) abort with a diagnostic.
//
// In builds with HIB_VALIDATE off (Release/MinSizeRel or -DHIB_VALIDATE=OFF)
// the validator does not exist; this file compiles to a single skip.
#include <gtest/gtest.h>

#include "src/disk/disk.h"
#include "src/sim/simulator.h"
#include "src/util/check.h"

#if HIB_VALIDATE

#include <vector>

#include "src/sim/validator.h"

namespace hib {
namespace {

constexpr ValidatorDiskState kAllStates[] = {
    ValidatorDiskState::kIdle,         ValidatorDiskState::kBusy,
    ValidatorDiskState::kChangingRpm,  ValidatorDiskState::kSpinningDown,
    ValidatorDiskState::kStandby,      ValidatorDiskState::kSpinningUp,
};

TEST(SimValidatorTest, LegalTransitionTableIsExactlyTheDocumentedGraph) {
  using S = ValidatorDiskState;
  const std::vector<std::pair<S, S>> legal = {
      {S::kIdle, S::kBusy},         {S::kIdle, S::kChangingRpm},
      {S::kIdle, S::kSpinningDown}, {S::kBusy, S::kIdle},
      {S::kChangingRpm, S::kIdle},  {S::kSpinningDown, S::kStandby},
      {S::kStandby, S::kSpinningUp}, {S::kSpinningUp, S::kIdle},
  };
  for (S from : kAllStates) {
    for (S to : kAllStates) {
      bool want = false;
      for (const auto& edge : legal) {
        want = want || (edge.first == from && edge.second == to);
      }
      EXPECT_EQ(SimValidator::IsLegalTransition(from, to), want)
          << ValidatorDiskStateName(from) << " -> " << ValidatorDiskStateName(to);
    }
  }
}

// Drives `disk` through every legal edge: serve I/O, change RPM, spin down,
// spin up.  Times are relative to the simulator's clock on entry.
void ExerciseEveryEdge(Simulator* sim, Disk* disk) {
  SimTime start = sim->Now();
  for (int i = 0; i < 8; ++i) {
    DiskRequest req;
    req.sector = 1000 * (i + 1);
    req.count = 64;
    req.is_write = (i % 2) == 0;
    disk->Submit(req);
  }
  sim->RunUntil(start + Seconds(10.0));
  disk->SetTargetRpm(disk->params().speeds[0].rpm);
  sim->RunUntil(start + Seconds(60.0));
  ASSERT_TRUE(disk->SpinDown());
  sim->RunUntil(start + Seconds(120.0));
  EXPECT_EQ(disk->state(), DiskPowerState::kStandby);
  disk->SpinUp();
  sim->RunUntil(start + Seconds(600.0));
  EXPECT_EQ(disk->state(), DiskPowerState::kIdle);
}

TEST(SimValidatorTest, CleanDiskLifecyclePassesEveryAudit) {
  Simulator sim;
  const SimValidator& validator = sim.validator();
  {
    Disk disk(&sim, MakeUltrastar36Z15MultiSpeed(3), 0, 42);
    ExerciseEveryEdge(&sim, &disk);
    EXPECT_EQ(validator.disks_tracked(), 1);
    EXPECT_GE(validator.transitions_checked(), 8);
    EXPECT_GT(validator.dispatches_checked(), 0);
  }
  EXPECT_EQ(validator.disks_tracked(), 0);

  // A second disk on the same simulator gets a fresh track and passes its
  // own lifecycle: nothing of the first disk's track leaks into it.
  std::int64_t first_transitions = validator.transitions_checked();
  {
    Disk disk(&sim, MakeUltrastar36Z15MultiSpeed(3), 1, 43);
    EXPECT_EQ(validator.disks_tracked(), 1);
    ExerciseEveryEdge(&sim, &disk);
    EXPECT_GE(validator.transitions_checked(), first_transitions + 8);
  }
  EXPECT_EQ(validator.disks_tracked(), 0);
}

TEST(SimValidatorTest, MatchingLedgerWithinToleranceIsAccepted) {
  SimValidator validator;
  std::uint32_t track = validator.OnDiskAttached(7, ValidatorDiskState::kIdle,
                                                 /*power=*/Watts(10.0), /*now=*/SimTime{});
  // 10 W for 1 s = 10 J; a ledger within 1e-6 relative drift must pass.
  validator.OnDiskTransition(track, ValidatorDiskState::kIdle,
                             ValidatorDiskState::kBusy, /*now=*/Ms(1000.0),
                             /*new_power=*/Watts(13.5),
                             /*metered_total=*/Joules(10.0 + 5e-6),
                             /*queue_depth=*/1);
  EXPECT_EQ(validator.transitions_checked(), 1);
}

TEST(SimValidatorTest, AttachReturnsDenseIndicesInAttachOrder) {
  SimValidator validator;
  EXPECT_EQ(validator.OnDiskAttached(5, ValidatorDiskState::kIdle, Watts(10.0), SimTime{}), 0u);
  EXPECT_EQ(validator.OnDiskAttached(2, ValidatorDiskState::kIdle, Watts(10.0), SimTime{}), 1u);
  validator.OnDiskDetached(0);
  // Indices are never reused, so a stale handle cannot alias a new disk.
  EXPECT_EQ(validator.OnDiskAttached(5, ValidatorDiskState::kIdle, Watts(10.0), SimTime{}), 2u);
  EXPECT_EQ(validator.disks_tracked(), 2);
}

TEST(SimValidatorDeathTest, StandbyDirectlyToBusyAborts) {
  SimValidator validator;
  std::uint32_t track =
      validator.OnDiskAttached(3, ValidatorDiskState::kStandby, Watts(0.9), SimTime{});
  EXPECT_DEATH(
      validator.OnDiskTransition(track, ValidatorDiskState::kStandby,
                                 ValidatorDiskState::kBusy, Ms(10.0), Watts(13.5),
                                 EnergyOf(Watts(0.9), Ms(10.0)), 1),
      "illegal transition STANDBY -> BUSY");
}

TEST(SimValidatorDeathTest, EnergyLedgerDriftAborts) {
  SimValidator validator;
  std::uint32_t track =
      validator.OnDiskAttached(4, ValidatorDiskState::kIdle, Watts(10.0), SimTime{});
  // The disk claims 11 J where integrating 10 W over 1 s gives 10 J.
  EXPECT_DEATH(
      validator.OnDiskTransition(track, ValidatorDiskState::kIdle,
                                 ValidatorDiskState::kBusy, Ms(1000.0), Watts(13.5),
                                 /*metered_total=*/Joules(11.0), 0),
      "energy ledger drift");
}

TEST(SimValidatorDeathTest, MisScaledTransitionEnergyAborts) {
  // Unit-mixup injection: a ledger integrated as "watts times milliseconds"
  // (1000x the true joules) must trip the 1e-6 relative energy audit.  This
  // is exactly the bug class the Quantity types exclude at compile time; the
  // validator is the runtime backstop at the .value() boundaries.
  SimValidator validator;
  std::uint32_t track =
      validator.OnDiskAttached(9, ValidatorDiskState::kIdle, Watts(10.0), SimTime{});
  Joules true_energy = EnergyOf(Watts(10.0), Seconds(1.0));
  Joules mis_scaled = Joules(true_energy.value() * kMsPerSecond);
  EXPECT_DEATH(
      validator.OnDiskTransition(track, ValidatorDiskState::kIdle,
                                 ValidatorDiskState::kBusy, Seconds(1.0), Watts(13.5),
                                 /*metered_total=*/mis_scaled, 0),
      "energy ledger drift");
}

TEST(SimValidatorDeathTest, NegativeQueueDepthAborts) {
  SimValidator validator;
  std::uint32_t track =
      validator.OnDiskAttached(5, ValidatorDiskState::kIdle, Watts(10.0), SimTime{});
  EXPECT_DEATH(
      validator.OnDiskTransition(track, ValidatorDiskState::kIdle,
                                 ValidatorDiskState::kBusy, Ms(1000.0), Watts(13.5),
                                 EnergyOf(Watts(10.0), Ms(1000.0)), /*queue_depth=*/-1),
      "negative queue depth");
}

TEST(SimValidatorDeathTest, SpinningDownWithQueuedRequestsAborts) {
  SimValidator validator;
  std::uint32_t track =
      validator.OnDiskAttached(6, ValidatorDiskState::kIdle, Watts(10.0), SimTime{});
  EXPECT_DEATH(
      validator.OnDiskTransition(track, ValidatorDiskState::kIdle,
                                 ValidatorDiskState::kSpinningDown, Ms(1000.0), Watts(2.0),
                                 EnergyOf(Watts(10.0), Ms(1000.0)), /*queue_depth=*/3),
      "spinning down with queued requests");
}

TEST(SimValidatorDeathTest, NonMonotonicDispatchAborts) {
  SimValidator validator;
  validator.OnDispatch(Ms(10.0));
  EXPECT_DEATH(validator.OnDispatch(Ms(5.0)), "dispatch went backwards");
}

TEST(SimValidatorDeathTest, TransitionOnUnknownDiskAborts) {
  SimValidator validator;
  validator.OnDiskAttached(1, ValidatorDiskState::kIdle, Watts(1.0), SimTime{});
  EXPECT_DEATH(
      validator.OnDiskTransition(/*index=*/1, ValidatorDiskState::kIdle,
                                 ValidatorDiskState::kBusy, SimTime{}, Watts(1.0), Joules{}, 0),
      "never attached");
}

TEST(SimValidatorDeathTest, TransitionAfterDetachAborts) {
  SimValidator validator;
  std::uint32_t track =
      validator.OnDiskAttached(8, ValidatorDiskState::kIdle, Watts(10.0), SimTime{});
  validator.OnDiskDetached(track);
  EXPECT_DEATH(
      validator.OnDiskTransition(track, ValidatorDiskState::kIdle,
                                 ValidatorDiskState::kBusy, Ms(1000.0), Watts(13.5),
                                 EnergyOf(Watts(10.0), Ms(1000.0)), 1),
      "transition on disk 8 \\(track 0\\) after it was detached");
}

TEST(SimValidatorDeathTest, DoubleDetachAborts) {
  SimValidator validator;
  std::uint32_t track =
      validator.OnDiskAttached(8, ValidatorDiskState::kIdle, Watts(10.0), SimTime{});
  validator.OnDiskDetached(track);
  EXPECT_DEATH(validator.OnDiskDetached(track), "detach on disk 8 .* after it was detached");
}

TEST(SimValidatorDeathTest, TransitionOnOneTrackLeavesTheOtherTrackAlone) {
  SimValidator validator;
  std::uint32_t first =
      validator.OnDiskAttached(1, ValidatorDiskState::kIdle, Watts(10.0), SimTime{});
  std::uint32_t second =
      validator.OnDiskAttached(2, ValidatorDiskState::kIdle, Watts(10.0), SimTime{});
  validator.OnDiskTransition(first, ValidatorDiskState::kIdle, ValidatorDiskState::kBusy,
                             Ms(1000.0), Watts(13.5), EnergyOf(Watts(10.0), Ms(1000.0)), 1);
  // The second disk is still idle: claiming it left BUSY must abort...
  EXPECT_DEATH(
      validator.OnDiskTransition(second, ValidatorDiskState::kBusy, ValidatorDiskState::kIdle,
                                 Ms(1000.0), Watts(10.0), EnergyOf(Watts(10.0), Ms(1000.0)), 0),
      "disk 2: transition from BUSY but validator last saw IDLE");
  // ...and its own IDLE -> BUSY passes.
  validator.OnDiskTransition(second, ValidatorDiskState::kIdle, ValidatorDiskState::kBusy,
                             Ms(1000.0), Watts(13.5), EnergyOf(Watts(10.0), Ms(1000.0)), 1);
  EXPECT_EQ(validator.transitions_checked(), 2);
}

}  // namespace
}  // namespace hib

#else  // !HIB_VALIDATE

TEST(SimValidatorTest, DisabledInThisBuildType) {
  GTEST_SKIP() << "HIB_VALIDATE is off (Release build); SimValidator is compiled out";
}

#endif  // HIB_VALIDATE
