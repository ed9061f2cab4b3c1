#include "paper_mix.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "carbon/region_traces.h"
#include "ckpt/snapshot.h"
#include "core/ecolib.h"
#include "core/ecovisor.h"
#include "energy/solar_array.h"
#include "policies/battery_policies.h"
#include "policies/carbon_budget.h"
#include "policies/carbon_reduction.h"
#include "policies/solar_cap.h"
#include "util/rng.h"
#include "workloads/batch_job.h"
#include "workloads/spark_job.h"
#include "workloads/straggler_job.h"
#include "workloads/web_application.h"

namespace perfbench {

namespace {

using namespace ecov;

constexpr TimeS kTickS = 60;
constexpr TimeS kDayS = 24 * 3600;
constexpr int kAppsPerCopy = 4;

// Per-tenant shares of the physical system: sized below the tenants'
// demand so that every app also draws grid power (and emits carbon)
// at night and under clouds.
constexpr double kSolarPeakPerTenantW = 8.0;
constexpr double kBatteryWhPerTenant = 40.0;
constexpr double kChargeWPerTenant = 10.0;
constexpr double kDischargeWPerTenant = 40.0;

/** The paper's microserver node (4 cores, Raspberry-Pi class). */
power::ServerPowerConfig
microserver()
{
    return power::ServerPowerConfig{4, 1.35, 5.0, 0.0};
}

} // namespace

/** One copy of the paper's four-application mix. */
struct MixCopy
{
    std::unique_ptr<wl::RequestTrace> trace;
    std::unique_ptr<wl::WebApplication> web;
    std::unique_ptr<policy::DynamicCarbonBudgetPolicy> web_pol;
    std::unique_ptr<wl::BatchJob> batch;
    std::unique_ptr<policy::WaitAndScalePolicy> batch_pol;
    std::unique_ptr<wl::SparkJob> spark;
    std::unique_ptr<policy::DynamicSparkBatteryPolicy> spark_pol;
    std::unique_ptr<wl::StragglerJob> straggler;
    std::unique_ptr<policy::DynamicSolarCapPolicy> straggler_pol;
};

struct PaperMix::World
{
    World(std::uint64_t seed, int copies, std::int64_t horizon_ticks);

    int tenants;
    carbon::TraceCarbonSignal signal;
    energy::GridConnection grid;
    energy::SolarArray solar;
    cop::Cluster cluster;
    energy::PhysicalEnergySystem phys;
    core::Ecovisor eco;
    sim::Simulation simul;
    std::vector<api::AppHandle> handles;
    std::vector<std::unique_ptr<core::EcoLib>> libs;
    std::vector<MixCopy> mix;
    std::unique_ptr<PhaseCut> cut;
    double core_seconds = 0.0;
    std::uint64_t failed_registrations = 0;
};

namespace {

energy::SolarTraceConfig
solarConfig(int tenants, int days)
{
    energy::SolarTraceConfig sc;
    sc.peak_w = kSolarPeakPerTenantW * tenants;
    sc.cloudiness = 0.25;
    sc.days = days;
    return sc;
}

energy::BatteryConfig
physicalBattery(int tenants)
{
    energy::BatteryConfig b;
    b.capacity_wh = kBatteryWhPerTenant * tenants;
    b.max_charge_w = kChargeWPerTenant * tenants;
    b.max_discharge_w = kDischargeWPerTenant * tenants;
    b.initial_soc = 0.5;
    return b;
}

core::AppShareConfig
tenantShare(int tenants)
{
    core::AppShareConfig s;
    s.solar_fraction = 1.0 / tenants;
    energy::BatteryConfig b;
    b.capacity_wh = kBatteryWhPerTenant;
    b.max_charge_w = kChargeWPerTenant;
    b.max_discharge_w = kDischargeWPerTenant;
    b.initial_soc = 0.5;
    s.battery = b;
    return s;
}

core::EcovisorOptions
mixOptions()
{
    core::EcovisorOptions o;
    o.record_telemetry = true;
    o.retention_window_s = kDayS; // one simulated day of raw samples
    return o;
}

} // namespace

PaperMix::World::World(std::uint64_t seed, int copies,
                       std::int64_t horizon_ticks)
    : tenants(copies * kAppsPerCopy),
      signal(carbon::makeRegionTrace(
          carbon::californiaProfile(),
          static_cast<int>(horizon_ticks * kTickS / kDayS) + 2, seed)),
      grid(&signal),
      solar(energy::makeSolarTrace(
          solarConfig(tenants,
                      static_cast<int>(horizon_ticks * kTickS / kDayS) + 2),
          seed + 1)),
      // ~38 cores per copy at peak; 12 four-core nodes per copy leave
      // headroom so no container creation fails.
      cluster(12 * copies, microserver()),
      phys(&grid, &solar, physicalBattery(tenants)),
      eco(&cluster, &phys, mixOptions()), simul(kTickS)
{
    Rng rng(seed * 7919 + 17);
    const TimeS horizon_s = horizon_ticks * kTickS;
    const double wait_threshold =
        signal.intensityPercentile(30.0, 0, 2 * kDayS);
    const core::AppShareConfig share = tenantShare(tenants);

    auto add = [&](const std::string &name) {
        auto h = eco.tryAddApp(name, share);
        if (!h.ok()) {
            ++failed_registrations;
            return false;
        }
        handles.push_back(h.value());
        return true;
    };

    mix.resize(static_cast<std::size_t>(copies));
    for (int i = 0; i < copies; ++i) {
        MixCopy &m = mix[static_cast<std::size_t>(i)];
        const std::string tag = std::to_string(i);

        // Web service under the dynamic carbon budget (Figure 6).
        wl::WebAppConfig wc;
        wc.app = "web" + tag;
        wc.max_workers = 12;
        m.trace = std::make_unique<wl::RequestTrace>(wl::makeRequestTrace(
            i % 2 == 0 ? wl::webApp1Workload() : wl::webApp2Workload(),
            seed * 1000 + static_cast<std::uint64_t>(i)));
        if (add(wc.app)) {
            m.web = std::make_unique<wl::WebApplication>(&cluster,
                                                         m.trace.get(), wc);
            m.web_pol = std::make_unique<policy::DynamicCarbonBudgetPolicy>(
                &eco, m.web.get(), 0.8e-3, horizon_s);
        }

        // Batch job under wait-and-scale (Figure 4).
        const double batch_hours = rng.uniform(8.0, 16.0);
        auto bc = wl::mlTrainingConfig("batch" + tag,
                                        batch_hours * 4.0 * 3600.0);
        if (add(bc.app)) {
            m.batch = std::make_unique<wl::BatchJob>(&cluster, bc);
            m.batch_pol = std::make_unique<policy::WaitAndScalePolicy>(
                &eco, m.batch.get(), wait_threshold, 2.0);
        }

        // Spark job under the dynamic battery policy (Figure 8).
        wl::SparkJobConfig sc;
        sc.app = "spark" + tag;
        sc.total_work = rng.uniform(40.0, 80.0) * 3600.0;
        sc.max_workers = 8;
        if (add(sc.app)) {
            m.spark = std::make_unique<wl::SparkJob>(&cluster, sc);
            m.spark_pol = std::make_unique<policy::DynamicSparkBatteryPolicy>(
                &eco, m.spark.get(), policy::BatteryPolicyConfig{});
        }

        // Straggler job under dynamic solar caps (Figure 10).
        wl::StragglerJobConfig gc;
        gc.app = "straggler" + tag;
        gc.workers = 8;
        gc.rounds = 40;
        gc.straggler_prob = 0.25;
        gc.straggler_rate = 0.5;
        gc.seed = rng.uniformInt(1, 1 << 30);
        if (add(gc.app)) {
            m.straggler = std::make_unique<wl::StragglerJob>(&cluster, gc);
            m.straggler_pol = std::make_unique<policy::DynamicSolarCapPolicy>(
                &eco, m.straggler.get());
        }
    }
    for (const api::AppHandle h : handles)
        libs.push_back(std::make_unique<core::EcoLib>(
            &eco, eco.appName(h).value()));

    simul.addListener(
        [this](TimeS t, TimeS dt) {
            for (MixCopy &m : mix) {
                if (m.web_pol)
                    m.web_pol->onTick(t, dt);
                if (m.batch_pol && !m.batch->done())
                    m.batch_pol->onTick(t, dt);
                if (m.spark_pol && !m.spark->done())
                    m.spark_pol->onTick(t, dt);
                if (m.straggler_pol && !m.straggler->done())
                    m.straggler_pol->onTick(t, dt);
            }
        },
        sim::TickPhase::Policy, "perfbench-policies");
    simul.addListener(
        [this](TimeS t, TimeS dt) {
            for (MixCopy &m : mix) {
                if (m.web)
                    m.web->onTick(t, dt);
                if (m.batch)
                    m.batch->onTick(t, dt);
                if (m.spark)
                    m.spark->onTick(t, dt);
                if (m.straggler)
                    m.straggler->onTick(t, dt);
            }
        },
        sim::TickPhase::Workload, "perfbench-workloads");
    eco.attach(simul);
    simul.addListener(
        [this](TimeS, TimeS dt) {
            core_seconds += (cluster.totalCores() - cluster.freeCores()) *
                            static_cast<double>(dt);
        },
        sim::TickPhase::Telemetry, "perfbench-core-seconds");
    cut = std::make_unique<PhaseCut>(&simul);

    for (MixCopy &m : mix) {
        if (m.web)
            m.web->start(4);
        if (m.batch)
            m.batch->start(0);
        if (m.spark)
            m.spark->start(0);
        if (m.straggler)
            m.straggler->start(0);
    }
}

PaperMix::PaperMix(std::uint64_t seed, int copies,
                   std::int64_t horizon_ticks)
    : w_(std::make_unique<World>(seed, copies, horizon_ticks))
{}

PaperMix::~PaperMix() = default;

int
PaperMix::tenants() const
{
    return static_cast<int>(w_->handles.size());
}

std::uint64_t
PaperMix::failedRegistrations() const
{
    return w_->failed_registrations;
}

void
PaperMix::run(std::int64_t ticks, MixTickTimes *times, MixTrace *trace)
{
    World &w = *w_;
    const bool traced = trace != nullptr;
    const std::uint64_t appends0 = traced ? totalAppends(w.eco.db()) : 0;
    const cop::ContainerId next_id0 =
        traced ? w.cluster.captureState().next_id : 0;

    for (std::int64_t k = 0; k < ticks; ++k) {
        // The tenants' reads: last-hour energy and carbon, at the start
        // of the Policy phase (before any policy acts on this tick).
        const TimeS t = w.simul.now();
        const TimeS t1 = std::max<TimeS>(0, t - 3600);
        const auto r0 = Clock::now();
        for (const auto &lib : w.libs) {
            double e, c;
            if (traced) {
                const auto q0 = Clock::now();
                e = lib->getAppEnergyWh(t1, t);
                const auto q1 = Clock::now();
                c = lib->getAppCarbonG(t1, t);
                const auto q2 = Clock::now();
                trace->query_ns += 1e3 * (toUs(q1 - q0) + toUs(q2 - q1));
                trace->queries += 2;
            } else {
                e = lib->getAppEnergyWh(t1, t);
                c = lib->getAppCarbonG(t1, t);
            }
            if (!std::isfinite(e) || !std::isfinite(c) || e < 0.0 ||
                c < 0.0)
                ++bad_reads_;
        }
        const double read_block_us = toUs(Clock::now() - r0);
        reads_ += w.libs.size();

        w.cut->step();
        const auto &span = w.cut->last();
        if (times) {
            times->commit_us.push_back(
                span[PhaseCut::kPolicy] + span[PhaseCut::kWorkload] +
                span[PhaseCut::kAccounting]);
            times->read_us.push_back(read_block_us /
                                     static_cast<double>(w.libs.size()));
        }
        if (traced) {
            ++trace->ticks;
            for (int s = 0; s < PhaseCut::kSpanCount; ++s)
                trace->span_us[s] += span[static_cast<std::size_t>(s)];
            trace->step_us += w.cut->lastStepUs() + read_block_us;
            trace->read_block_us += read_block_us;
            trace->live_containers += w.cluster.containerCount();
        }
    }
    if (traced) {
        trace->appends += totalAppends(w.eco.db()) - appends0;
        trace->heap_mb =
            static_cast<double>(w.eco.db().memoryBytes()) / (1 << 20);
        trace->creates += w.cluster.captureState().next_id - next_id0;
    }
}

DomainTotals
PaperMix::totals() const
{
    const World &w = *w_;
    DomainTotals d;
    for (const api::AppHandle h : w.handles) {
        d.carbon_g += w.eco.ves(h)->totalCarbonG();
        d.grid_wh += w.eco.ves(h)->totalGridWh();
    }
    d.unserved_wh = w.eco.unservedWh();
    d.core_seconds = w.core_seconds;
    ckpt::World cw;
    cw.sim = &w_->simul;
    cw.eco = &w_->eco;
    cw.cluster = &w_->cluster;
    cw.phys = &w_->phys;
    cw.grid = &w_->grid;
    d.digest = ckpt::snapshotDigest(cw);
    return d;
}

} // namespace perfbench
