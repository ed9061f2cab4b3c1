/**
 * @file
 * EcoLib notification semantics, tick by tick: a solar or carbon
 * watch compares the tenant's current reading with the reading of the
 * previous tick (taken whether or not any watch was registered then),
 * readings follow the fault plane's sensor-blackout and derate rules,
 * and battery full/empty notifications fire on the rising edge only.
 *
 * The oracle is a model of those rules driven by the app's
 * EnergySnapshot and battery flags, read before each tick's upcall.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rig.h"
#include "core/ecolib.h"

namespace ecov::core {
namespace {

/** One delivered notification. */
struct Event
{
    TimeS t;
    std::string kind; ///< "solar", "carbon", "full" or "empty"
    double prev = 0.0;
    double cur = 0.0;

    bool
    operator==(const Event &o) const
    {
        return t == o.t && kind == o.kind && prev == o.prev &&
               cur == o.cur;
    }
};

std::ostream &
operator<<(std::ostream &os, const Event &e)
{
    return os << "{" << e.t << " " << e.kind << " " << e.prev << " -> "
              << e.cur << "}";
}

/**
 * A 2 h carbon trace (100/400 g/kWh), a 100 W solar day, one app
 * owning all solar and a small battery, so a few ticks of grid
 * charging fill it and a few ticks of load drain it.
 */
struct Rig : testutil::Rig
{
    api::AppHandle h;

    Rig()
        : testutil::Rig([] {
              testutil::RigOptions o;
              o.signal_points = {{0, 100.0}, {3600, 400.0}};
              o.signal_period = 7200;
              o.solar_points = {
                  {0, 0.0}, {6 * 3600, 100.0}, {18 * 3600, 0.0}};
              return o;
          }())
    {
        AppShareConfig share;
        share.solar_fraction = 1.0;
        energy::BatteryConfig b;
        b.capacity_wh = 4.0;
        b.soc_floor = 0.3;
        b.max_charge_w = 20.0;
        b.max_discharge_w = 20.0;
        b.initial_soc = 0.5;
        share.battery = b;
        h = eco.tryAddApp("app", share).value();
    }
};

/** The watch rules, fed the readings EcoLib's upcall sees. */
struct Model
{
    struct Watch
    {
        std::string kind;
        double threshold;
    };
    std::vector<Watch> change_watches;
    int full_watches = 0;
    int empty_watches = 0;
    double prev_solar = -1.0;
    double prev_carbon = -1.0;
    bool prev_full = false;
    bool prev_empty = false;

    void
    tick(TimeS t, const api::EnergySnapshot &snap,
         const VirtualEnergySystem &ves, std::vector<Event> &out)
    {
        auto change = [&](const char *kind, double &prev, double cur) {
            if (prev >= 0.0) {
                const double rel =
                    std::fabs(cur - prev) / std::max(prev, 1e-9);
                for (const Watch &w : change_watches)
                    if (w.kind == kind && rel > w.threshold)
                        out.push_back({t, kind, prev, cur});
            }
            prev = cur;
        };
        change("solar", prev_solar, snap.solar_w);
        change("carbon", prev_carbon, snap.grid_carbon_g_per_kwh);
        if (ves.hasBattery()) {
            const bool full = ves.battery().full();
            const bool empty = ves.battery().empty();
            if (full && !prev_full)
                for (int i = 0; i < full_watches; ++i)
                    out.push_back({t, "full"});
            if (empty && !prev_empty)
                for (int i = 0; i < empty_watches; ++i)
                    out.push_back({t, "empty"});
            prev_full = full;
            prev_empty = empty;
        }
    }
};

/** A library plus the model, with watches registered on both. */
struct Watched
{
    Rig &rig;
    EcoLib lib;
    Model model;
    std::vector<Event> got;
    std::vector<Event> want;
    TimeS now = 0;

    explicit Watched(Rig &r) : rig(r), lib(&r.eco, "app") {}

    void
    watchChange(const std::string &kind, double threshold)
    {
        auto cb = [this, kind](double prev, double cur) {
            got.push_back({now, kind, prev, cur});
        };
        if (kind == "solar")
            lib.notifySolarChange(cb, threshold);
        else
            lib.notifyCarbonChange(cb, threshold);
        model.change_watches.push_back({kind, threshold});
    }

    void
    watchFull()
    {
        lib.notifyBatteryFull([this] { got.push_back({now, "full"}); });
        ++model.full_watches;
    }

    void
    watchEmpty()
    {
        lib.notifyBatteryEmpty([this] { got.push_back({now, "empty"}); });
        ++model.empty_watches;
    }

    /** One 60 s tick at `t` under `faults`. */
    void
    tick(TimeS t, const EnergyFaults &faults = {})
    {
        now = t;
        rig.eco.setEnergyFaults(faults);
        model.tick(t, rig.eco.getEnergySnapshot(rig.h).value(),
                   *rig.eco.ves(rig.h), want);
        rig.eco.dispatchTickCallbacks(t, 60);
        rig.eco.settleTick(t, 60);
    }

    int
    count(const std::string &kind) const
    {
        int n = 0;
        for (const Event &e : got)
            n += e.kind == kind;
        return n;
    }
};

TEST(EcoLibNotify, WatchRegisteredMidRunComparesWithTheLastTick)
{
    Rig rig;
    Watched w(rig);
    // 59 ticks with no watch at all, then a carbon watch registered
    // right before the tick where the trace steps 100 -> 400: the
    // upcall compares with the reading taken on the tick before it
    // was registered, so the step is reported at once.
    TimeS t = 0;
    for (; t < 3600; t += 60)
        w.tick(t);
    w.watchChange("carbon", 0.5);
    w.tick(t);
    ASSERT_EQ(w.got.size(), 1u);
    EXPECT_EQ(w.got[0], (Event{3600, "carbon", 100.0, 400.0}));
    // A solar watch registered mid-run reports the sunrise step.
    for (t += 60; t < 6 * 3600; t += 60)
        w.tick(t);
    w.watchChange("solar", 10.0);
    w.tick(t);
    EXPECT_EQ(w.count("solar"), 1);
    EXPECT_EQ(w.got, w.want);
}

TEST(EcoLibNotify, SensorBlackoutServesTheStaleReading)
{
    Rig rig;
    Watched w(rig);
    w.watchChange("carbon", 0.1);
    w.watchChange("solar", 0.1);
    EnergyFaults blackout;
    blackout.sensor_blackout = true;
    // The carbon trace steps at 3600 and 7200 and the sun rises at
    // 21600; a blackout over each step hides it until the sensors
    // come back, and then the change is reported against the stale
    // reading.
    for (TimeS t = 0; t < 8 * 3600; t += 60) {
        const bool dark = (t >= 3540 && t < 3720) ||
                          (t >= 7140 && t < 7260) ||
                          (t >= 21540 && t < 21660);
        w.tick(t, dark ? blackout : EnergyFaults{});
    }
    EXPECT_EQ(w.got, w.want);
    EXPECT_EQ(w.count("solar"), 1);
    // The stale reading is the last settled one, so the 3600 step
    // shows one tick late (settled at 3600, read at 3660); the wrap
    // step at 7200 shows when the sensors come back.
    ASSERT_GE(w.got.size(), 3u);
    EXPECT_EQ(w.got[0], (Event{3660, "carbon", 100.0, 400.0}));
    EXPECT_EQ(w.got[1], (Event{7260, "carbon", 400.0, 100.0}));
}

TEST(EcoLibNotify, DerateChangesTheSolarReading)
{
    Rig rig;
    Watched w(rig);
    w.watchChange("solar", 0.3);
    EnergyFaults derate;
    derate.solar_derate = 0.5;
    EnergyFaults dropout;
    dropout.solar_derate = 0.0;
    for (TimeS t = 0; t < 10 * 3600; t += 60) {
        EnergyFaults f;
        if (t >= 7 * 3600 && t < 8 * 3600)
            f = derate;
        else if (t >= 9 * 3600 && t < 9 * 3600 + 300)
            f = dropout;
        w.tick(t, f);
    }
    EXPECT_EQ(w.got, w.want);
    // Sunrise, derate on/off, dropout on/off.
    EXPECT_EQ(w.count("solar"), 5);
    EXPECT_EQ(w.got[1], (Event{7 * 3600, "solar", 100.0, 50.0}));
    EXPECT_EQ(w.got[2], (Event{8 * 3600, "solar", 50.0, 100.0}));
}

TEST(EcoLibNotify, BatteryFullAndEmptyFireOnEdgesOnly)
{
    Rig rig;
    Watched w(rig);
    w.watchFull();
    w.watchEmpty();
    w.watchFull(); // two watches, both notified per edge
    std::vector<cop::ContainerId> load;
    for (int i = 0; i < 3; ++i)
        load.push_back(*rig.cluster.createContainer("app", 4.0));
    // Night: alternate 60 ticks of grid charging (no discharge) with
    // 60 ticks of load (no charging); each phase reaches the limit
    // and then sits on it for a while, so every edge is crossed
    // exactly once per phase and the flat stretches must stay quiet.
    TimeS t = 0;
    for (int phase = 0; phase < 4; ++phase) {
        const bool charge = phase % 2 == 0;
        rig.eco.setBatteryChargeRate(rig.h, charge ? 20.0 : 0.0)
            .orFatal();
        rig.eco.setBatteryMaxDischarge(rig.h, charge ? 0.0 : 20.0)
            .orFatal();
        for (cop::ContainerId id : load)
            rig.cluster.setDemand(id, charge ? 0.0 : 1.0);
        for (int i = 0; i < 60; ++i, t += 60)
            w.tick(t);
    }
    EXPECT_EQ(w.got, w.want);
    EXPECT_EQ(w.count("full"), 4);  // two phases x two watches
    EXPECT_EQ(w.count("empty"), 2); // two phases x one watch
    // A watch registered while the battery sits empty does not fire
    // until the next edge.
    w.watchEmpty();
    for (int i = 0; i < 10; ++i, t += 60)
        w.tick(t);
    EXPECT_EQ(w.count("empty"), 2);
    EXPECT_EQ(w.got, w.want);
}

TEST(EcoLibNotify, BatteryOfflineAndCapacityFadeKeepTheEdgeRule)
{
    Rig rig;
    Watched w(rig);
    w.watchFull();
    w.watchEmpty();
    w.watchChange("carbon", 0.0);
    rig.eco.setBatteryChargeRate(rig.h, 20.0).orFatal();
    EnergyFaults offline;
    offline.battery_offline = true;
    EnergyFaults fade;
    fade.battery_capacity_factor = 0.6;
    TimeS t = 0;
    for (int i = 0; i < 120; ++i, t += 60) {
        EnergyFaults f;
        if (i >= 10 && i < 20)
            f = offline;
        else if (i >= 50 && i < 70)
            f = fade;
        w.tick(t, f);
    }
    EXPECT_EQ(w.got, w.want);
    EXPECT_GE(w.count("full"), 1);
}

} // namespace
} // namespace ecov::core
