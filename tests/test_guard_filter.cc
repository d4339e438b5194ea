/**
 * @file
 * Tests for BUI-GF threshold semantics (paper Eq. 4, Fig. 7).
 */

#include <gtest/gtest.h>

#include "core/guard_filter.h"

namespace pade {
namespace {

TEST(GuardFilter, NoPruneBeforeFirstObservation)
{
    GuardFilter g(0.5, 5.0, 0.1);
    EXPECT_FALSE(g.shouldPrune(-1000000));
    EXPECT_EQ(g.threshold(), INT64_MIN);
}

TEST(GuardFilter, ThresholdTracksMaxLowerBound)
{
    GuardFilter g(1.0, 5.0, 0.1); // margin = 5 / 0.1 = 50 int units
    g.observe(100);
    EXPECT_EQ(g.threshold(), 50);
    g.observe(40); // lower LB does not move the max
    EXPECT_EQ(g.threshold(), 50);
    g.observe(200);
    EXPECT_EQ(g.threshold(), 150);
}

TEST(GuardFilter, PruneComparesUpperBound)
{
    GuardFilter g(1.0, 5.0, 0.1);
    g.observe(100); // threshold 50
    EXPECT_TRUE(g.shouldPrune(49));
    EXPECT_FALSE(g.shouldPrune(50));
    EXPECT_FALSE(g.shouldPrune(51));
}

TEST(GuardFilter, SmallerAlphaPrunesMore)
{
    // alpha = 0.2 -> margin 10; alpha = 1.0 -> margin 50.
    GuardFilter aggressive(0.2, 5.0, 0.1);
    GuardFilter conservative(1.0, 5.0, 0.1);
    aggressive.observe(100);
    conservative.observe(100);
    // UB 60: above the aggressive threshold (90)? No: 60 < 90 pruned;
    // conservative threshold 50: 60 survives.
    EXPECT_TRUE(aggressive.shouldPrune(60));
    EXPECT_FALSE(conservative.shouldPrune(60));
}

TEST(GuardFilter, AlphaZeroPrunesBelowMax)
{
    GuardFilter g(0.0, 5.0, 0.1);
    g.observe(100);
    EXPECT_TRUE(g.shouldPrune(99));
    EXPECT_FALSE(g.shouldPrune(100));
}

TEST(GuardFilter, UpdatesCountOnlyIncreases)
{
    GuardFilter g(0.5, 5.0, 0.1);
    g.observe(10);
    g.observe(5);
    g.observe(20);
    g.observe(20);
    EXPECT_EQ(g.updates(), 2u);
}

TEST(GuardFilter, LogitScaleConvertsMargin)
{
    // Same alpha/radius, coarser scale -> smaller integer margin.
    GuardFilter fine(1.0, 5.0, 0.01);   // margin 500
    GuardFilter coarse(1.0, 5.0, 1.0);  // margin 5
    fine.observe(1000);
    coarse.observe(1000);
    EXPECT_EQ(fine.threshold(), 500);
    EXPECT_EQ(coarse.threshold(), 995);
}

TEST(GuardFilter, NegativeScoresHandled)
{
    GuardFilter g(1.0, 5.0, 1.0); // margin 5
    g.observe(-100);
    EXPECT_EQ(g.threshold(), -105);
    EXPECT_TRUE(g.shouldPrune(-106));
    EXPECT_FALSE(g.shouldPrune(-100));
}

TEST(GuardFilter, MaxLowerBoundAccessor)
{
    GuardFilter g(0.5, 5.0, 1.0);
    g.observe(7);
    g.observe(3);
    EXPECT_EQ(g.maxLowerBound(), 7);
}

TEST(GuardFilterDeathTest, InvalidConfigAbortsInEveryBuild)
{
    // A negative alpha or radius makes the margin negative, the
    // overflow test in threshold() then reads every threshold as -inf
    // and pruning silently turns off; the constructor refuses instead
    // (a PADE_CHECK, so Release builds refuse too).
    EXPECT_DEATH(GuardFilter(-0.5, 5.0, 0.1), "PADE_CHECK.*alpha");
    EXPECT_DEATH(GuardFilter(1.5, 5.0, 0.1), "PADE_CHECK.*alpha");
    EXPECT_DEATH(GuardFilter(0.5, -1.0, 0.1), "PADE_CHECK.*radius");
    EXPECT_DEATH(GuardFilter(0.5, 5.0, 0.0), "PADE_CHECK.*logit_scale");
    EXPECT_DEATH(GuardFilter(0.5, 5.0, -1.0), "PADE_CHECK.*logit_scale");
}

TEST(GuardFilter, BoundaryConfigsAreAccepted)
{
    GuardFilter lo(0.0, 0.0, 1e-6);
    GuardFilter hi(1.0, 5.0, 1e6);
    lo.observe(10);
    hi.observe(10);
    EXPECT_EQ(lo.threshold(), 10);
    EXPECT_EQ(hi.threshold(), 10);
}

} // namespace
} // namespace pade
