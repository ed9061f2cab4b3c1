/**
 * @file
 * The row path (TsDatabase::beginRow/put/endRow into the shared
 * frame) against the per-series path (write() into private frames):
 * randomized worlds of series born and ended at random rows, under
 * every retention shape, must answer every query bit for bit alike —
 * including windows in the rollup region — and hold the same store
 * shape. An Ecovisor with container churn must record identical
 * stores at 1 and 4 threads.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/rig.h"
#include "core/ecovisor.h"
#include "telemetry/ts_database.h"
#include "util/rng.h"

namespace ecov::ts {
namespace {

using core::EcovisorOptions;
using testutil::Rig;
using testutil::appShare;

/** Bit pattern of a double: equal answers, not merely == ones. */
std::uint64_t
bits(double d)
{
    std::uint64_t u;
    std::memcpy(&u, &d, sizeof u);
    return u;
}

/** Every query and every store-shape count of a against b. */
void
expectSeriesIdentical(const TimeSeries &a, const TimeSeries &b,
                      TimeS from, TimeS to, const std::string &what)
{
    SCOPED_TRACE(what);
    ASSERT_EQ(a.totalAppends(), b.totalAppends());
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.epoch(), b.epoch());
    ASSERT_EQ(a.coldBlockCount(), b.coldBlockCount());
    ASSERT_EQ(a.coldSampleCount(), b.coldSampleCount());
    ASSERT_EQ(a.hasRetired(), b.hasRetired());
    ASSERT_EQ(a.exactSince(), b.exactSince());
    ASSERT_EQ(a.minuteTier().bucketCount(), b.minuteTier().bucketCount());
    ASSERT_EQ(a.hourTier().bucketCount(), b.hourTier().bucketCount());
    EXPECT_EQ(bits(a.last()), bits(b.last()));
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a.at(i).time_s, b.at(i).time_s) << "i=" << i;
        ASSERT_EQ(bits(a.at(i).value), bits(b.at(i).value)) << "i=" << i;
    }
    // Window starts sweep from before all history (rollup region and
    // the clamp) to past the newest sample; widths from one second to
    // several hours.
    const TimeS span = to - from + 1;
    for (int q = 0; q < 60; ++q) {
        const TimeS t1 = from - 7200 + (span + 9000) * q / 60;
        for (const TimeS w : {TimeS{1}, TimeS{59}, TimeS{600},
                              TimeS{3600}, TimeS{5 * 3600}}) {
            const TimeS t2 = t1 + w;
            ASSERT_EQ(bits(a.integrateWh(t1, t2)),
                      bits(b.integrateWh(t1, t2)))
                << "integrate t1=" << t1 << " t2=" << t2;
            ASSERT_EQ(bits(a.sumRange(t1, t2)), bits(b.sumRange(t1, t2)))
                << "sum t1=" << t1 << " t2=" << t2;
            ASSERT_EQ(bits(a.maxRange(t1, t2)), bits(b.maxRange(t1, t2)))
                << "max t1=" << t1 << " t2=" << t2;
            ASSERT_EQ(bits(a.averageOver(t1, t2)),
                      bits(b.averageOver(t1, t2)))
                << "average t1=" << t1 << " t2=" << t2;
        }
        for (const TimeS dt : {TimeS{0}, TimeS{61}, TimeS{1800}})
            ASSERT_EQ(bits(a.valueAt(t1 + dt)), bits(b.valueAt(t1 + dt)))
                << "valueAt t=" << t1 + dt;
    }
}

struct WorldSeries
{
    SeriesId row_id;
    SeriesId write_id;
    int born;  ///< first row written
    int ended; ///< first row not written (rows when never ended)
};

/**
 * One randomized world, recorded twice. Checks both stores every 37
 * rows too, so answers are compared while a shared column still has
 * rows not folded into its hour tier, and while young series' hour
 * buckets are still open.
 */
void
runWorld(std::uint64_t seed, const RetentionConfig &cfg)
{
    Rng rng(seed);
    TsDatabase rows, writes;
    rows.setDefaultRetention(cfg);
    writes.setDefaultRetention(cfg);
    constexpr int kSeries = 24;
    const int n_rows = 300 + static_cast<int>(rng.uniform(0.0, 500.0));
    std::vector<WorldSeries> series;
    for (int i = 0; i < kSeries; ++i) {
        const std::string tag = "s" + std::to_string(i);
        WorldSeries w;
        w.row_id = rows.intern("m", tag);
        w.write_id = writes.intern("m", tag);
        // A third are born at row 0; the rest at random rows. Half
        // end at a random later row (a destroyed container).
        w.born = i % 3 == 0 ? 0
                            : static_cast<int>(rng.uniform(
                                  0.0, static_cast<double>(n_rows)));
        w.ended = rng.bernoulli(0.5)
                      ? w.born + 1 +
                            static_cast<int>(rng.uniform(
                                0.0, static_cast<double>(n_rows - w.born)))
                      : n_rows;
        series.push_back(w);
    }

    auto compareAll = [&](TimeS from, TimeS to) {
        for (const WorldSeries &w : series)
            expectSeriesIdentical(rows.series(w.row_id),
                                  writes.series(w.write_id), from, to,
                                  "seed=" + std::to_string(seed) +
                                      " born=" + std::to_string(w.born) +
                                      " ended=" + std::to_string(w.ended));
    };

    // Cadences mix repeated timestamps, regular ticks, dense steps
    // and gaps.
    TimeS t = static_cast<TimeS>(rng.uniform(0.0, 5000.0));
    const TimeS t0 = t;
    for (int r = 0; r < n_rows; ++r) {
        const double kind = rng.uniform(0.0, 1.0);
        t += kind < 0.05  ? 0
             : kind < 0.6 ? 60
             : kind < 0.9 ? static_cast<TimeS>(rng.uniform(1.0, 30.0))
                          : static_cast<TimeS>(rng.uniform(1.0, 20000.0));
        rows.beginRow(t);
        for (const WorldSeries &w : series) {
            if (r == w.born)
                rows.join(w.row_id);
            if (r < w.born || r >= w.ended)
                continue;
            const double v = rng.uniform(-5.0, 50.0);
            rows.put(w.row_id, v);
            writes.write("m", "s" + std::to_string(&w - series.data()), t,
                         v);
        }
        rows.endRow();
        if (r % 37 == 36)
            compareAll(t0, t);
    }
    compareAll(t0, t);
}

TEST(FrameRows, RowPathEqualsPerSeriesWrites)
{
    Rng pick(20261019);
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        RetentionConfig cfg;
        const int kind = static_cast<int>(seed % 4); // none/count/window/both
        if (kind == 1 || kind == 3)
            cfg.max_samples =
                1 + static_cast<std::size_t>(pick.uniform(0.0, 150.0));
        // Short windows too: with small keeps they put the minute
        // tier's start inside the newest hour bucket.
        if (kind == 2 || kind == 3)
            cfg.window_s = 60 + static_cast<TimeS>(pick.uniform(
                                    0.0, seed % 3 == 0 ? 600.0 : 14400.0));
        cfg.seal_batch = seed % 5 == 0
                             ? 1
                             : 1 + static_cast<std::size_t>(
                                       pick.uniform(0.0, 90.0));
        // Half the worlds clamp the tier keeps (setRetention raises
        // them to at least one window, nested).
        if (seed % 2 == 0) {
            cfg.cold_keep = pick.uniform(0.0, 2.0);
            cfg.minute_keep = pick.uniform(0.0, 2.0);
            cfg.hour_keep = pick.uniform(0.0, 3.0);
        }
        runWorld(seed, cfg);
        if (HasFatalFailure())
            return;
    }
}

/** A column skipped for a row ends; a later put on it continues on
 *  the series' private frame, and answers still match write(). */
TEST(FrameRows, PutAfterEndContinuesPrivately)
{
    TsDatabase rows, writes;
    const SeriesId a = rows.intern("m", "a");
    const SeriesId b = writes.intern("m", "a");
    rows.join(a);
    for (int r = 0; r < 200; ++r) {
        const TimeS t = 60 * static_cast<TimeS>(r);
        rows.beginRow(t);
        if (r < 70 || r >= 90) {
            rows.put(a, 0.5 * r);
            writes.append(b, t, 0.5 * r);
        }
        rows.endRow();
    }
    expectSeriesIdentical(rows.series(a), writes.series(b), 0, 200 * 60,
                          "resumed");
    EXPECT_GT(rows.series(a).capacity(), 0u); // now on a private frame
}

/** Drive one ecovisor through seeded container churn. */
void
driveChurn(Rig *rig, int ticks)
{
    Rng rng(4242);
    std::vector<std::string> names;
    std::vector<std::vector<cop::ContainerId>> pools(5);
    for (int a = 0; a < 5; ++a) {
        names.push_back("app" + std::to_string(a));
        rig->eco.addApp(names.back(), appShare(0.15, 150.0));
    }
    for (int i = 0; i < ticks; ++i) {
        for (std::size_t a = 0; a < pools.size(); ++a) {
            auto &pool = pools[a];
            if (rng.bernoulli(0.2) && !pool.empty()) {
                rig->cluster.destroyContainer(pool.front());
                pool.erase(pool.begin());
            }
            if (rng.bernoulli(0.3)) {
                auto id = rig->cluster.createContainer(names[a], 1.0);
                if (id)
                    pool.push_back(*id);
            }
            for (const cop::ContainerId c : pool)
                rig->cluster.setDemand(c, rng.uniform(0.1, 0.9));
        }
        rig->eco.settleTick(static_cast<TimeS>(i) * 60, 60);
    }
}

TEST(FrameRows, EcovisorChurnStoresIdenticalAcrossThreadCounts)
{
    for (const EcovisorOptions base :
         {EcovisorOptions{}, EcovisorOptions{.retention_window_s = 7200},
          EcovisorOptions{.retention_samples = 90}}) {
        EcovisorOptions one = base, four = base;
        one.threads = 1;
        four.threads = 4;
        Rig seq(one), par(four);
        ASSERT_EQ(par.eco.settleThreads(), 4);
        driveChurn(&seq, 600);
        driveChurn(&par, 600);
        const TsDatabase &a = seq.eco.db();
        const TsDatabase &b = par.eco.db();
        const auto keys = a.keys();
        ASSERT_EQ(keys.size(), b.keys().size());
        ASSERT_GT(keys.size(), 100u); // churn made many series
        for (const auto &k : keys)
            expectSeriesIdentical(a.series(k.measurement, k.tag),
                                  b.series(k.measurement, k.tag), 0,
                                  600 * 60, k.measurement + "/" + k.tag);
        EXPECT_EQ(a.memoryBytes(), b.memoryBytes());
    }
}

} // namespace
} // namespace ecov::ts
