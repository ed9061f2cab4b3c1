/**
 * @file
 * Time-series store tests: step-function semantics, integration,
 * range queries.
 */

#include <gtest/gtest.h>

#include "telemetry/time_series.h"
#include "util/logging.h"

namespace ecov::ts {
namespace {

TEST(TimeSeries, EmptyQueries)
{
    TimeSeries s;
    EXPECT_TRUE(s.empty());
    EXPECT_DOUBLE_EQ(s.last(), 0.0);
    EXPECT_DOUBLE_EQ(s.valueAt(100), 0.0);
    EXPECT_DOUBLE_EQ(s.integrateWh(0, 100), 0.0);
    EXPECT_DOUBLE_EQ(s.sumRange(0, 100), 0.0);
}

TEST(TimeSeries, AppendAndLast)
{
    TimeSeries s;
    s.append(0, 5.0);
    s.append(60, 7.0);
    EXPECT_EQ(s.size(), 2u);
    EXPECT_DOUBLE_EQ(s.last(), 7.0);
}

TEST(TimeSeries, NonDecreasingTimestampsEnforced)
{
    TimeSeries s;
    s.append(60, 1.0);
    EXPECT_THROW(s.append(59, 2.0), FatalError);
    // Equal timestamps allowed (multiple writers in one tick).
    s.append(60, 3.0);
    EXPECT_EQ(s.size(), 2u);
}

TEST(TimeSeries, StepFunctionValueAt)
{
    TimeSeries s;
    s.append(60, 10.0);
    s.append(120, 20.0);
    EXPECT_DOUBLE_EQ(s.valueAt(0), 0.0);    // before first sample
    EXPECT_DOUBLE_EQ(s.valueAt(60), 10.0);  // exact hit
    EXPECT_DOUBLE_EQ(s.valueAt(90), 10.0);  // holds
    EXPECT_DOUBLE_EQ(s.valueAt(120), 20.0);
    EXPECT_DOUBLE_EQ(s.valueAt(10000), 20.0); // holds after the last
}

TEST(TimeSeries, IntegrateConstantPower)
{
    TimeSeries s;
    s.append(0, 100.0); // 100 W from t=0
    // One hour of 100 W is 100 Wh.
    EXPECT_NEAR(s.integrateWh(0, 3600), 100.0, 1e-9);
    // Half the window, half the energy.
    EXPECT_NEAR(s.integrateWh(0, 1800), 50.0, 1e-9);
}

TEST(TimeSeries, IntegrateStepChange)
{
    TimeSeries s;
    s.append(0, 100.0);
    s.append(1800, 200.0);
    // 100 W for 30 min + 200 W for 30 min = 50 + 100 = 150 Wh.
    EXPECT_NEAR(s.integrateWh(0, 3600), 150.0, 1e-9);
}

TEST(TimeSeries, IntegratePartialWindow)
{
    TimeSeries s;
    s.append(0, 60.0);
    s.append(600, 120.0);
    // Window [300, 900): 60 W x 300 s + 120 W x 300 s = 5 + 10 Wh.
    EXPECT_NEAR(s.integrateWh(300, 900), 15.0, 1e-9);
}

TEST(TimeSeries, IntegrateBeforeFirstSampleIsZeroValued)
{
    TimeSeries s;
    s.append(600, 120.0);
    // [0, 600) precedes data: integral 0; [0, 1200): only second half.
    EXPECT_NEAR(s.integrateWh(0, 600), 0.0, 1e-9);
    EXPECT_NEAR(s.integrateWh(0, 1200), 20.0, 1e-9);
}

TEST(TimeSeries, IntegrateEmptyOrInvertedWindow)
{
    TimeSeries s;
    s.append(0, 100.0);
    EXPECT_DOUBLE_EQ(s.integrateWh(100, 100), 0.0);
    EXPECT_DOUBLE_EQ(s.integrateWh(200, 100), 0.0);
}

TEST(TimeSeries, SumRangeCountsDeltasInWindow)
{
    TimeSeries s;
    s.append(0, 1.0);
    s.append(60, 2.0);
    s.append(120, 4.0);
    EXPECT_DOUBLE_EQ(s.sumRange(0, 180), 7.0);
    EXPECT_DOUBLE_EQ(s.sumRange(0, 120), 3.0);  // [0, 120) excludes 120
    EXPECT_DOUBLE_EQ(s.sumRange(60, 121), 6.0);
    EXPECT_DOUBLE_EQ(s.sumRange(200, 300), 0.0);
}

TEST(TimeSeries, AverageOver)
{
    TimeSeries s;
    s.append(0, 100.0);
    s.append(1800, 200.0);
    EXPECT_NEAR(s.averageOver(0, 3600), 150.0, 1e-9);
    EXPECT_DOUBLE_EQ(s.averageOver(100, 100), 0.0);
}

TEST(TimeSeries, MaxRange)
{
    TimeSeries s;
    s.append(0, 5.0);
    s.append(60, 9.0);
    s.append(120, 3.0);
    EXPECT_DOUBLE_EQ(s.maxRange(0, 180), 9.0);
    EXPECT_DOUBLE_EQ(s.maxRange(100, 180), 3.0);
    EXPECT_DOUBLE_EQ(s.maxRange(500, 600), 0.0);
}

TEST(TimeSeries, FreshSeriesIsEmptyUntilAppended)
{
    TimeSeries s;
    EXPECT_TRUE(s.empty());
    s.append(0, 1.0);
    s.append(60, 2.0);
    EXPECT_EQ(s.size(), 2u);
    EXPECT_DOUBLE_EQ(s.integrateWh(0, 3600), 2.0 * 3540.0 / 3600.0 +
                                                 1.0 * 60.0 / 3600.0);
}

/** Every hint value must reproduce the unhinted lower bound. */
TEST(TimeSeries, LowerBoundHintNeverChangesResult)
{
    TimeSeries s;
    for (TimeS t = 0; t < 1200; t += 60)
        s.append(t, static_cast<double>(t));
    // Probe exact hits, midpoints, before-first and past-last times
    // with every possible hint (including one past size()).
    for (TimeS t : {-10L, 0L, 30L, 60L, 61L, 599L, 600L, 1140L, 1200L,
                    5000L}) {
        const std::size_t expect = s.lowerBound(t);
        for (std::size_t hint = 0; hint <= s.size() + 1; ++hint)
            EXPECT_EQ(s.lowerBound(t, hint), expect)
                << "t=" << t << " hint=" << hint;
    }
}

/**
 * The cursored query overloads must be bit-identical to the plain
 * ones for any incoming cursor value (a cursor is only a search
 * hint), and must leave the cursor at the window-start index.
 */
TEST(TimeSeries, CursorQueriesAreBitIdentical)
{
    TimeSeries s;
    for (TimeS t = 0; t < 6000; t += 60)
        s.append(t, static_cast<double>((t / 60) % 13) * 7.5);
    for (TimeS t1 : {0L, 90L, 600L, 3000L, 5940L}) {
        for (TimeS t2 : {t1 + 30, t1 + 60, t1 + 600, TimeS{6000}}) {
            const double plain_wh = s.integrateWh(t1, t2);
            const double plain_sum = s.sumRange(t1, t2);
            for (std::size_t start : {std::size_t{0}, std::size_t{7},
                                      s.size(), s.size() + 5}) {
                Cursor cur{start, 0};
                EXPECT_EQ(s.integrateWh(t1, t2, &cur), plain_wh);
                EXPECT_EQ(cur.index, s.lowerBound(t1));
                cur = Cursor{start, 0};
                EXPECT_EQ(s.sumRange(t1, t2, &cur), plain_sum);
                EXPECT_EQ(cur.index, s.lowerBound(t1));
            }
        }
    }
}

/**
 * Reference for the pre-optimization integrateWh (it recomputed the
 * start value with a second search via valueAt); the single-search
 * rewrite must be bit-identical on every window alignment.
 */
double
referenceIntegrateWh(const TimeSeries &s, TimeS t1, TimeS t2)
{
    if (t2 <= t1 || s.empty())
        return 0.0;
    double acc = 0.0;
    TimeS cursor = t1;
    std::size_t idx = s.lowerBound(t1);
    double current = s.valueAt(t1);
    if (idx < s.size() && s.at(idx).time_s == t1) {
        current = s.at(idx).value;
        ++idx;
    }
    while (idx < s.size() && s.at(idx).time_s < t2) {
        acc += current * static_cast<double>(s.at(idx).time_s - cursor);
        cursor = s.at(idx).time_s;
        current = s.at(idx).value;
        ++idx;
    }
    acc += current * static_cast<double>(t2 - cursor);
    return acc / kSecondsPerHour;
}

TEST(TimeSeries, IntegrateSingleSearchMatchesReference)
{
    TimeSeries s;
    for (TimeS t = 120; t < 1200; t += 60)
        s.append(t, static_cast<double>((t / 60) % 5) * 3.25);
    // Windows starting before the first sample, exactly on samples,
    // between samples, and beyond the last sample.
    for (TimeS t1 : {0L, 60L, 120L, 150L, 180L, 1140L, 1300L}) {
        for (TimeS t2 : {t1 + 1, t1 + 30, t1 + 60, t1 + 90,
                         TimeS{1500}}) {
            EXPECT_EQ(s.integrateWh(t1, t2),
                      referenceIntegrateWh(s, t1, t2))
                << "t1=" << t1 << " t2=" << t2;
        }
    }
}

/**
 * Property: integrating over adjacent windows is additive — the
 * telemetry invariant the Table 2 interval queries rely on.
 */
class IntegralAdditivity : public ::testing::TestWithParam<TimeS>
{
};

TEST_P(IntegralAdditivity, SplitWindow)
{
    TimeSeries s;
    for (TimeS t = 0; t < 3600; t += 60)
        s.append(t, static_cast<double>((t / 60) % 7) * 10.0);
    TimeS split = GetParam();
    double whole = s.integrateWh(0, 3600);
    double parts = s.integrateWh(0, split) + s.integrateWh(split, 3600);
    EXPECT_NEAR(whole, parts, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, IntegralAdditivity,
                         ::testing::Values(1, 59, 60, 61, 1800, 3599));

} // namespace
} // namespace ecov::ts
