#include <gtest/gtest.h>

#include "src/hibernator/perf_guarantee.h"

namespace hib {
namespace {

PerfGuaranteeParams Params(Duration goal = Ms(20.0), double cap_requests = 1000.0) {
  PerfGuaranteeParams p;
  p.goal_ms = goal;
  p.credit_cap_requests = cap_requests;
  p.boost_margin_requests = 0.0;  // classic deficit-triggered boost for tests
  return p;
}

TEST(Guarantee, StartsAtZeroNotBoosting) {
  PerfGuarantee g(Params());
  EXPECT_DOUBLE_EQ(g.credit_ms().value(), 0.0);
  EXPECT_FALSE(g.ShouldBoost());
}

TEST(Guarantee, FastRequestsEarnCredit) {
  PerfGuarantee g(Params(Ms(20.0)));
  g.Observe(Ms(10.0 * 100), 100);  // 100 requests at 10 ms each
  EXPECT_DOUBLE_EQ(g.credit_ms().value(), (20.0 - 10.0) * 100);
  EXPECT_FALSE(g.ShouldBoost());
}

TEST(Guarantee, SlowRequestsSpendCredit) {
  PerfGuarantee g(Params(Ms(20.0)));
  g.Observe(Ms(10.0 * 100), 100);   // +1000
  g.Observe(Ms(30.0 * 50), 50);     // -500
  EXPECT_DOUBLE_EQ(g.credit_ms().value(), 500.0);
}

TEST(Guarantee, DeficitTriggersBoost) {
  PerfGuarantee g(Params(Ms(20.0)));
  g.Observe(Ms(25.0 * 10), 10);  // immediately in the red
  EXPECT_TRUE(g.ShouldBoost());
}

TEST(Guarantee, CreditIsCapped) {
  PerfGuarantee g(Params(Ms(20.0), 100.0));  // cap = 2000 ms
  g.Observe(Ms(0.0), 1'000'000);             // would earn 20M ms uncapped
  EXPECT_DOUBLE_EQ(g.credit_ms().value(), 2000.0);
  EXPECT_DOUBLE_EQ(g.cap_ms().value(), 2000.0);
}

TEST(Guarantee, CapBoundsDamage) {
  // After an arbitrarily long good period, one bad stretch bounded by the cap
  // still forces a boost.
  PerfGuarantee g(Params(Ms(20.0), 100.0));
  g.Observe(Ms(0.0), 1'000'000);
  g.Observe(Ms(40.0 * 101), 101);  // spends 2020 > cap
  EXPECT_TRUE(g.ShouldBoost());
}

TEST(Guarantee, ResumeRequiresHysteresis) {
  PerfGuaranteeParams p = Params(Ms(20.0), 100.0);
  p.resume_credit_requests = 50.0;  // resume at credit >= 1000 ms
  PerfGuarantee g(p);
  g.Observe(Ms(30.0 * 10), 10);  // -100: boost
  EXPECT_TRUE(g.ShouldBoost());
  g.Observe(Ms(10.0 * 20), 20);  // +200 => credit 100, below resume threshold
  EXPECT_FALSE(g.ShouldBoost());
  EXPECT_FALSE(g.CanResume());
  g.Observe(Ms(10.0 * 100), 100);  // well past 1000
  EXPECT_TRUE(g.CanResume());
}

TEST(Guarantee, ZeroCountObservationIgnored) {
  PerfGuarantee g(Params());
  g.Observe(Ms(123.0), 0);
  EXPECT_DOUBLE_EQ(g.credit_ms().value(), 0.0);
}

TEST(Guarantee, SetGoalRescalesCap) {
  PerfGuarantee g(Params(Ms(20.0), 100.0));
  g.Observe(Ms(0.0), 1000);  // hit the 2000 ms cap
  g.set_goal_ms(Ms(10.0));   // cap drops to 1000 ms
  EXPECT_DOUBLE_EQ(g.cap_ms().value(), 1000.0);
  EXPECT_LE(g.credit_ms().value(), 1000.0);
  EXPECT_DOUBLE_EQ(g.goal_ms().value(), 10.0);
}

TEST(Guarantee, BoostMarginTriggersEarly) {
  PerfGuaranteeParams p = Params(Ms(20.0), 1000.0);
  p.boost_margin_requests = 10.0;  // boost below 200 ms of credit
  PerfGuarantee g(p);
  // Lift the credit to 300 ms, 100 ms above the margin, from wherever it
  // starts.
  Duration lift = Ms(300.0) - g.credit_ms();
  g.Observe(Ms(20.0 * 30) - lift, 30);
  EXPECT_FALSE(g.ShouldBoost());
  g.Observe(Ms(25.0 * 30), 30);  // -150 => credit 150, below the 200 ms margin
  EXPECT_TRUE(g.ShouldBoost());
  EXPECT_GT(g.credit_ms().value(), 0.0);  // at risk, not yet in deficit
}

TEST(Guarantee, ExactlyAtGoalIsNeutral) {
  PerfGuarantee g(Params(Ms(20.0)));
  g.Observe(Ms(20.0 * 500), 500);
  EXPECT_DOUBLE_EQ(g.credit_ms().value(), 0.0);
  EXPECT_FALSE(g.ShouldBoost());
}

}  // namespace
}  // namespace hib
