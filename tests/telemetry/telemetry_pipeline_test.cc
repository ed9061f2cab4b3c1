/**
 * @file
 * The interned telemetry pipeline end to end: the SeriesId fast path
 * must be bit-identical to the legacy string-shim path on a seeded
 * churny simulation, sharded recording must be bit-identical to
 * sequential at any thread count (the docs/PERF.md determinism
 * contract extended to telemetry), and per-container series caches
 * must be generation-checked — a recycled slab slot can never alias
 * its predecessor's series.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/telemetry.h"
#include "common/rig.h"
#include "core/ecolib.h"
#include "core/ecovisor.h"
#include "telemetry/ts_database.h"
#include "util/rng.h"

namespace ecov::core {
namespace {

using testutil::Rig;
using testutil::appShare;

/** Exact equality of everything both databases expose. */
void
expectDbBitIdentical(const ts::TsDatabase &a, const ts::TsDatabase &b)
{
    const auto ka = a.keys();
    const auto kb = b.keys();
    ASSERT_EQ(ka.size(), kb.size());
    ASSERT_EQ(a.seriesCount(), b.seriesCount());
    for (std::size_t i = 0; i < ka.size(); ++i) {
        EXPECT_EQ(ka[i].measurement, kb[i].measurement);
        EXPECT_EQ(ka[i].tag, kb[i].tag);
        const ts::TimeSeries &sa =
            a.series(ka[i].measurement, ka[i].tag);
        const ts::TimeSeries &sb =
            b.series(ka[i].measurement, ka[i].tag);
        ASSERT_EQ(sa.size(), sb.size())
            << ka[i].measurement << "/" << ka[i].tag;
        for (std::size_t j = 0; j < sa.size(); ++j) {
            EXPECT_EQ(sa.at(j).time_s, sb.at(j).time_s)
                << ka[i].measurement << "/" << ka[i].tag << "[" << j
                << "]";
            EXPECT_EQ(sa.at(j).value, sb.at(j).value)
                << ka[i].measurement << "/" << ka[i].tag << "[" << j
                << "]";
        }
    }
}

/** Drive one rig through a seeded churn+demand workload. */
struct Driver
{
    Rig rig;
    std::vector<std::string> names;
    std::vector<std::vector<cop::ContainerId>> pools;
    Rng rng{1234};

    explicit Driver(EcovisorOptions opts, int apps = 6)
        : rig(opts)
    {
        pools.resize(static_cast<std::size_t>(apps));
        for (int a = 0; a < apps; ++a) {
            names.push_back("app" + std::to_string(a));
            rig.eco.addApp(names.back(),
                           appShare(0.8 / apps, 800.0 / apps));
            auto id = rig.cluster.createContainer(names.back(), 1.0);
            if (id)
                pools[static_cast<std::size_t>(a)].push_back(*id);
        }
    }

    void
    run(int ticks)
    {
        for (int i = 0; i < ticks; ++i) {
            TimeS t = static_cast<TimeS>(i) * 60;
            for (std::size_t a = 0; a < pools.size(); ++a) {
                auto &pool = pools[a];
                // Seeded churn: every driver makes identical moves,
                // so container ids (the telemetry tags) line up.
                if (rng.bernoulli(0.15) && !pool.empty()) {
                    rig.cluster.destroyContainer(pool.front());
                    pool.erase(pool.begin());
                }
                if (rng.bernoulli(0.25)) {
                    auto id =
                        rig.cluster.createContainer(names[a], 1.0);
                    if (id)
                        pool.push_back(*id);
                }
                for (std::size_t c = 0; c < pool.size(); ++c)
                    rig.cluster.setDemand(
                        pool[c], 0.1 + 0.8 * rng.uniform(0.0, 1.0));
            }
            rig.eco.dispatchTickCallbacks(t, 60);
            rig.eco.settleTick(t, 60);
        }
    }
};

TEST(TelemetryPipeline, SeriesIdPathEqualsStringShimPath)
{
    Driver fast(EcovisorOptions{.telemetry_via_strings = false});
    Driver shim(EcovisorOptions{.telemetry_via_strings = true});
    fast.run(150);
    shim.run(150);
    expectDbBitIdentical(fast.rig.eco.db(), shim.rig.eco.db());
}

TEST(TelemetryPipeline, ShardedRecordingIsBitIdentical)
{
    Driver seq(EcovisorOptions{.threads = 1});
    Driver par(EcovisorOptions{.threads = 4});
    ASSERT_EQ(par.rig.eco.settleThreads(), 4);
    seq.run(150);
    par.run(150);
    expectDbBitIdentical(seq.rig.eco.db(), par.rig.eco.db());
}

TEST(TelemetryPipeline, ShardedEqualsStringShim)
{
    // Transitivity check across both axes at once: 4-way sharded
    // SeriesId recording vs the sequential seed-era string path.
    Driver par(EcovisorOptions{.threads = 4});
    Driver shim(EcovisorOptions{.telemetry_via_strings = true});
    par.run(100);
    shim.run(100);
    expectDbBitIdentical(par.rig.eco.db(), shim.rig.eco.db());
}

TEST(TelemetryPipeline, RecycledSlotNeverAliasesOldSeries)
{
    Rig rig;
    rig.eco.addApp("a", appShare(0.5, 360.0));
    auto first = rig.cluster.createContainer("a", 1.0);
    ASSERT_TRUE(first);
    rig.cluster.setDemand(*first, 0.9);
    const api::ContainerHandle stale =
        api::handleOf(rig.cluster, *first);
    rig.eco.settleTick(0, 60);

    const ts::SeriesId old_power =
        rig.eco
            .containerSeriesId(stale, api::ContainerMetric::PowerW)
            .value();
    EXPECT_EQ(rig.eco.db().series(old_power).size(), 1u);

    // Destroy and recreate: the LIFO free-list recycles the slot, so
    // the new container occupies the same slot with a bumped
    // generation and a new (monotonic) id.
    rig.cluster.destroyContainer(*first);
    auto second = rig.cluster.createContainer("a", 1.0);
    ASSERT_TRUE(second);
    ASSERT_NE(*first, *second);
    rig.cluster.setDemand(*second, 0.9);
    rig.eco.settleTick(60, 60);

    // The stale handle reports UnknownContainer, never the recycled
    // slot's fresh series.
    auto through_stale =
        rig.eco.containerSeriesId(stale, api::ContainerMetric::PowerW);
    ASSERT_FALSE(through_stale.ok());
    EXPECT_EQ(through_stale.status().code(),
              api::ErrorCode::UnknownContainer);

    const ts::SeriesId new_power =
        rig.eco
            .containerSeriesId(api::handleOf(rig.cluster, *second),
                               api::ContainerMetric::PowerW)
            .value();
    EXPECT_NE(new_power, old_power);
    // The destroyed container's history is frozen; the successor's
    // series started fresh under its own tag.
    EXPECT_EQ(rig.eco.db().series(old_power).size(), 1u);
    EXPECT_EQ(rig.eco.db().series(new_power).size(), 1u);
    EXPECT_TRUE(
        rig.eco.db().has("container_power_w", std::to_string(*first)));
    EXPECT_TRUE(rig.eco.db().has("container_power_w",
                                 std::to_string(*second)));
}

TEST(TelemetryPipeline, AppSeriesIdMatchesStringLookup)
{
    Rig rig;
    rig.eco.addApp("a", appShare(0.5, 360.0));
    const api::AppHandle h = rig.eco.findApp("a").value();
    rig.eco.settleTick(0, 60);

    EXPECT_EQ(rig.eco.appSeriesId(h, api::AppMetric::PowerW).value(),
              rig.eco.db().findSeries("app_power_w", "a"));
    EXPECT_EQ(rig.eco.appSeriesId(h, api::AppMetric::CarbonG).value(),
              rig.eco.db().findSeries("app_carbon_g", "a"));
    EXPECT_EQ(
        rig.eco.appSeriesId(h, api::AppMetric::Containers).value(),
        rig.eco.db().findSeries("app_containers", "a"));

    auto bad = rig.eco.appSeriesId(api::AppHandle{},
                                   api::AppMetric::PowerW);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), api::ErrorCode::InvalidHandle);
}

/** The row path records every series as a column of the shared
 *  frame: no series holds a private frame of its own. */
TEST(TelemetryPipeline, RowPathRecordsSeriesAsFrameColumns)
{
    Rig rig;
    rig.eco.addApp("a", appShare(0.5, 360.0));
    const api::AppHandle h = rig.eco.findApp("a").value();
    auto id = rig.cluster.createContainer("a", 1.0);
    ASSERT_TRUE(id);
    rig.eco.settleTick(0, 60);

    const ts::SeriesId power =
        rig.eco.appSeriesId(h, api::AppMetric::PowerW).value();
    EXPECT_EQ(rig.eco.db().series(power).size(), 1u);
    EXPECT_EQ(rig.eco.db().series(power).capacity(), 0u);
    EXPECT_EQ(rig.eco.db().series("grid_carbon").size(), 1u);
    EXPECT_EQ(rig.eco.db().series("grid_carbon").capacity(), 0u);
    const ts::SeriesId cpower =
        rig.eco
            .containerSeriesId(api::handleOf(rig.cluster, *id),
                               api::ContainerMetric::PowerW)
            .value();
    EXPECT_EQ(rig.eco.db().series(cpower).size(), 1u);
    EXPECT_EQ(rig.eco.db().series(cpower).capacity(), 0u);
}

TEST(TelemetryPipeline, EcoLibCursorQueriesMatchPlainQueries)
{
    Rig rig;
    rig.eco.addApp("a", appShare(0.5, 360.0));
    auto id = rig.cluster.createContainer("a", 1.0);
    ASSERT_TRUE(id);
    rig.cluster.setDemand(*id, 0.8);
    EcoLib lib(&rig.eco, "a");
    rig.run(120);

    // Monotone windows (the policy-loop pattern) and a couple of
    // regressions (stale cursor) — the cursored EcoLib results must
    // equal uncursored direct queries on the same series.
    const auto &power = rig.eco.db().series("app_power_w", "a");
    const auto &carbon = rig.eco.db().series("app_carbon_g", "a");
    const auto &cpower =
        rig.eco.db().series("container_power_w", std::to_string(*id));
    for (TimeS t1 : {0L, 600L, 1800L, 3000L, 1200L, 6600L}) {
        const TimeS t2 = t1 + 600;
        EXPECT_EQ(lib.getAppEnergyWh(t1, t2),
                  power.integrateWh(t1, t2));
        EXPECT_EQ(lib.getAppCarbonG(t1, t2), carbon.sumRange(t1, t2));
        EXPECT_EQ(lib.getContainerEnergyWh(*id, t1, t2),
                  cpower.integrateWh(t1, t2));
    }
}

} // namespace
} // namespace ecov::core
