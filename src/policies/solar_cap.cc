#include "policies/solar_cap.h"

#include <algorithm>

#include "util/logging.h"

namespace ecov::policy {

StaticSolarCapPolicy::StaticSolarCapPolicy(core::Ecovisor *eco,
                                           wl::StragglerJob *job)
    : eco_(eco), job_(job)
{
    if (!eco_)
        fatal("StaticSolarCapPolicy: null ecovisor");
    if (!job_)
        fatal("StaticSolarCapPolicy: null job");
    handle_ = eco_->findApp(job_->config().app).value();
}

void
StaticSolarCapPolicy::onTick(TimeS start_s, TimeS dt_s)
{
    (void)start_s;
    (void)dt_s;
    if (job_->done())
        return;
    const std::size_t n = job_->workerCount();
    if (n == 0)
        return;
    // Immediate caps (not a settlement-staged CapBatch): the workload
    // phase of this same tick must already run under them.
    double budget_w = eco_->getSolarPower(handle_).value();
    double per_w = budget_w / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i)
        eco_->setContainerPowercap(job_->worker(i).container, per_w)
            .orFatal();
}

DynamicSolarCapPolicy::DynamicSolarCapPolicy(core::Ecovisor *eco,
                                             wl::StragglerJob *job,
                                             SolarCapPolicyConfig config)
    : eco_(eco), job_(job), config_(config)
{
    if (!eco_)
        fatal("DynamicSolarCapPolicy: null ecovisor");
    if (!job_)
        fatal("DynamicSolarCapPolicy: null job");
    handle_ = eco_->findApp(job_->config().app).value();
}

double
DynamicSolarCapPolicy::distribute(TimeS start_s)
{
    (void)start_s;
    const std::size_t n = job_->workerCount();
    if (n == 0)
        return 0.0;
    double budget_w = eco_->getSolarPower(handle_).value();

    // Pass 1: waiting workers get the I/O trickle; count the busy
    // containers (computing workers and their replicas).
    std::size_t busy = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const wl::StragglerJob::WorkerView w = job_->worker(i);
        if (w.computing) {
            busy += w.hasReplica() ? 2 : 1;
        } else {
            eco_->setContainerPowercap(w.container, config_.io_power_w)
                .orFatal();
            budget_w -= config_.io_power_w;
        }
    }
    budget_w = std::max(0.0, budget_w);

    if (busy == 0)
        return budget_w;

    // Pass 2: computing containers split the remainder, clamped at
    // each container's full-power draw; leftover is spare. Workers in
    // order, each primary before its replica.
    const double per_w = budget_w / static_cast<double>(busy);
    double spare_w = 0.0;
    auto grant = [&](api::ContainerHandle c) {
        const double full_w = eco_->cluster().maxContainerPowerW(c.ref());
        const double cap = std::min(per_w, full_w);
        eco_->setContainerPowercap(c, cap).orFatal();
        spare_w += per_w - cap;
    };
    for (std::size_t i = 0; i < n; ++i) {
        const wl::StragglerJob::WorkerView w = job_->worker(i);
        if (!w.computing)
            continue;
        grant(w.container);
        if (w.hasReplica())
            grant(w.replica);
    }
    return spare_w;
}

void
DynamicSolarCapPolicy::onTick(TimeS start_s, TimeS dt_s)
{
    (void)dt_s;
    if (job_->done())
        return;
    distribute(start_s);
}

StragglerMitigationPolicy::StragglerMitigationPolicy(
    core::Ecovisor *eco, wl::StragglerJob *job,
    SolarCapPolicyConfig config)
    : DynamicSolarCapPolicy(eco, job, config)
{
}

void
StragglerMitigationPolicy::onTick(TimeS start_s, TimeS dt_s)
{
    (void)dt_s;
    if (job_->done())
        return;

    // Spend spare solar on replicas for the slowest computing tasks.
    const std::size_t n = job_->workerCount();
    double full_w =
        n == 0 ? 0.0
               : eco_->cluster().maxContainerPowerW(
                     job_->worker(0).container.ref());
    double spare_w = distribute(start_s);

    int issued = 0;
    while (spare_w >= config_.replica_headroom * full_w &&
           issued < config_.max_replicas_per_round) {
        // Pick the slowest computing worker without a replica.
        int slowest = -1;
        double slowest_progress = 2.0;
        for (std::size_t i = 0; i < n; ++i) {
            const wl::StragglerJob::WorkerView w = job_->worker(i);
            if (w.computing && !w.hasReplica() &&
                w.round_progress < slowest_progress) {
                slowest = static_cast<int>(i);
                slowest_progress = w.round_progress;
            }
        }
        if (slowest < 0)
            break;
        if (!job_->addReplica(slowest))
            break;
        spare_w -= full_w;
        ++issued;
    }

    // Re-distribute so fresh replicas receive caps this tick.
    if (issued > 0)
        distribute(start_s);
}

} // namespace ecov::policy
