/**
 * @file
 * Step-trace lookups of the three piecewise-constant traces (solar
 * power, grid carbon intensity, request rate) against a plain
 * wrap-then-upper_bound reference: randomized traces, query sequences
 * that are monotone, repeated, backwards, negative, across the wrap
 * and before the first point, on one thread and on four threads
 * sharing one trace object.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "carbon/carbon_signal.h"
#include "energy/solar_array.h"
#include "util/rng.h"
#include "workloads/request_trace.h"

namespace ecov {
namespace {

/** A generic trace: strictly increasing times and their values. */
struct RefTrace
{
    std::vector<TimeS> times;
    std::vector<double> values;
    TimeS period = 0; ///< 0 = no wrap

    /** The reference answer: wrap, upper_bound, clamp to the front. */
    double
    at(TimeS t) const
    {
        if (period > 0) {
            t %= period;
            if (t < 0)
                t += period;
        }
        auto it = std::upper_bound(times.begin(), times.end(), t);
        if (it == times.begin())
            return values.front();
        return values[static_cast<std::size_t>(it - times.begin()) - 1];
    }
};

/**
 * A random trace: 1-40 points at gaps of 1-600 s, the first at a
 * random offset (so queries before it exist), a period past the last
 * point (or none, when `wrap` is false).
 */
RefTrace
randomTrace(Rng &rng, bool wrap, TimeS first_min = 0)
{
    RefTrace tr;
    const int n = static_cast<int>(rng.uniformInt(1, 40));
    TimeS t = first_min + rng.uniformInt(0, 900);
    for (int i = 0; i < n; ++i) {
        tr.times.push_back(t);
        tr.values.push_back(rng.uniform(0.0, 500.0));
        t += rng.uniformInt(1, 600);
    }
    tr.period = wrap ? t + rng.uniformInt(0, 900) : 0;
    return tr;
}

/**
 * Query times for one sequence shape: 0 monotone ticks, 1 repeated
 * times, 2 backwards ticks, 3 uniform random over several periods
 * (negative ones included), 4 a sweep across the wrap point, 5 times
 * before (and at) the first point.
 */
std::vector<TimeS>
querySequence(Rng &rng, const RefTrace &tr, int shape)
{
    const TimeS span = tr.period > 0 ? tr.period
                                     : tr.times.back() - tr.times.front() + 1;
    std::vector<TimeS> q;
    switch (shape) {
    case 0: {
        TimeS t = rng.uniformInt(-span, span);
        const TimeS step = rng.uniformInt(1, 120);
        for (int i = 0; i < 300; ++i, t += step)
            q.push_back(t);
        break;
    }
    case 1: {
        TimeS t = rng.uniformInt(-span, 2 * span);
        for (int i = 0; i < 200; ++i) {
            if (i % 7 == 0)
                t += rng.uniformInt(0, 200);
            q.push_back(t);
        }
        break;
    }
    case 2: {
        TimeS t = rng.uniformInt(span, 3 * span);
        const TimeS step = rng.uniformInt(1, 120);
        for (int i = 0; i < 300; ++i, t -= step)
            q.push_back(t);
        break;
    }
    case 3:
        for (int i = 0; i < 300; ++i)
            q.push_back(rng.uniformInt(-4 * span, 4 * span));
        break;
    case 4: {
        const TimeS edge = tr.period > 0 ? tr.period : tr.times.back();
        for (TimeS d = -50; d <= 50; ++d)
            q.push_back(edge + d);
        for (TimeS d = -50; d <= 50; ++d)
            q.push_back(-edge + d);
        break;
    }
    default:
        for (TimeS d = 0; d <= 40; ++d)
            q.push_back(tr.times.front() - 40 + d);
        q.push_back(tr.times.front());
        q.push_back(tr.times.front() - 1);
        break;
    }
    return q;
}

/**
 * Compare `lookup` with the reference over every query shape, on
 * `threads` threads that share the trace object. Each thread walks
 * its own shuffled sequence order, so the threads interleave
 * different positions of one trace. Returns the mismatch count.
 */
int
mismatches(const RefTrace &tr, const std::function<double(TimeS)> &lookup,
           int threads, std::uint64_t seed)
{
    std::atomic<int> bad{0};
    auto worker = [&](int k) {
        Rng rng(seed * 31 + static_cast<std::uint64_t>(k));
        for (int rep = 0; rep < 3; ++rep) {
            for (int s = 0; s < 6; ++s) {
                const int shape = (s + k + rep) % 6;
                for (TimeS t : querySequence(rng, tr, shape)) {
                    if (lookup(t) != tr.at(t))
                        bad.fetch_add(1, std::memory_order_relaxed);
                }
            }
        }
    };
    if (threads <= 1) {
        worker(0);
    } else {
        std::vector<std::thread> pool;
        for (int k = 0; k < threads; ++k)
            pool.emplace_back(worker, k);
        for (auto &th : pool)
            th.join();
    }
    return bad.load();
}

class TraceLookup : public ::testing::TestWithParam<int>
{};

TEST_P(TraceLookup, SolarPowerMatchesUpperBound)
{
    const int threads = GetParam();
    Rng rng(7001);
    for (int trial = 0; trial < 60; ++trial) {
        RefTrace tr = randomTrace(rng, /*wrap=*/true);
        std::vector<energy::SolarArray::Point> pts;
        for (std::size_t i = 0; i < tr.times.size(); ++i)
            pts.push_back({tr.times[i], tr.values[i]});
        energy::SolarArray solar(std::move(pts), tr.period);
        // Exercise a non-unit scale too; the reference scales alike.
        const double scale = trial % 2 ? 1.0 : 0.75;
        solar.setScale(scale);
        RefTrace scaled = tr;
        for (double &v : scaled.values)
            v *= scale;
        EXPECT_EQ(mismatches(scaled,
                             [&](TimeS t) { return solar.powerAt(t); },
                             threads, static_cast<std::uint64_t>(trial)),
                  0)
            << "trial " << trial;
    }
}

TEST_P(TraceLookup, CarbonIntensityMatchesUpperBound)
{
    const int threads = GetParam();
    Rng rng(7002);
    for (int trial = 0; trial < 60; ++trial) {
        // Odd trials do not wrap, and their points may start before 0.
        const bool wrap = trial % 2 == 0;
        RefTrace tr = randomTrace(rng, wrap, wrap ? 0 : -3000);
        std::vector<carbon::TraceCarbonSignal::Point> pts;
        for (std::size_t i = 0; i < tr.times.size(); ++i)
            pts.push_back({tr.times[i], tr.values[i]});
        carbon::TraceCarbonSignal sig(std::move(pts), tr.period);
        EXPECT_EQ(mismatches(tr,
                             [&](TimeS t) { return sig.intensityAt(t); },
                             threads, static_cast<std::uint64_t>(trial)),
                  0)
            << "trial " << trial;
    }
}

TEST_P(TraceLookup, RequestRateMatchesUpperBound)
{
    const int threads = GetParam();
    Rng rng(7003);
    for (int trial = 0; trial < 60; ++trial) {
        RefTrace tr = randomTrace(rng, /*wrap=*/true);
        std::vector<wl::RequestTrace::Point> pts;
        for (std::size_t i = 0; i < tr.times.size(); ++i)
            pts.push_back({tr.times[i], tr.values[i]});
        wl::RequestTrace req(std::move(pts), tr.period);
        EXPECT_EQ(mismatches(tr, [&](TimeS t) { return req.rateAt(t); },
                             threads, static_cast<std::uint64_t>(trial)),
                  0)
            << "trial " << trial;
    }
}

TEST_P(TraceLookup, CopiedTraceAnswersLikeItsSource)
{
    // A copy (the region traces and the rigs copy traces around) must
    // answer exactly as the original, whatever either was asked before.
    const int threads = GetParam();
    Rng rng(7004);
    RefTrace tr = randomTrace(rng, /*wrap=*/true);
    std::vector<energy::SolarArray::Point> pts;
    for (std::size_t i = 0; i < tr.times.size(); ++i)
        pts.push_back({tr.times[i], tr.values[i]});
    energy::SolarArray a(std::move(pts), tr.period);
    for (TimeS t = 0; t < tr.period; t += 37)
        (void)a.powerAt(t);
    energy::SolarArray b = a;
    EXPECT_EQ(mismatches(tr, [&](TimeS t) { return b.powerAt(t); },
                         threads, 99),
              0);
    EXPECT_EQ(mismatches(tr, [&](TimeS t) { return a.powerAt(t); },
                         threads, 98),
              0);
}

INSTANTIATE_TEST_SUITE_P(Threads, TraceLookup, ::testing::Values(1, 4));

} // namespace
} // namespace ecov
