#include "workloads/straggler_job.h"

#include <algorithm>

#include "util/logging.h"

namespace ecov::wl {

StragglerJob::StragglerJob(cop::Cluster *cluster, StragglerJobConfig config)
    : cluster_(cluster), config_(std::move(config)), rng_(config_.seed)
{
    if (!cluster_)
        fatal("StragglerJob: null cluster");
    if (config_.app.empty())
        fatal("StragglerJob: empty app name");
    if (config_.workers < 1)
        fatal("StragglerJob: workers must be >= 1");
    if (config_.rounds < 1)
        fatal("StragglerJob: rounds must be >= 1");
    if (config_.round_work <= 0.0)
        fatal("StragglerJob: round work must be positive");
    if (config_.straggler_prob < 0.0 || config_.straggler_prob > 1.0)
        fatal("StragglerJob: straggler probability must be in [0, 1]");
    if (config_.straggler_rate <= 0.0 || config_.straggler_rate > 1.0)
        fatal("StragglerJob: straggler rate must be in (0, 1]");
}

StragglerJob::~StragglerJob()
{
    for (auto &w : workers_) {
        if (cluster_->exists(w.id))
            cluster_->destroyContainer(w.id);
        if (w.replica_id != cop::kInvalidContainer &&
            cluster_->exists(w.replica_id))
            cluster_->destroyContainer(w.replica_id);
    }
}

void
StragglerJob::start(TimeS now_s)
{
    if (started_)
        fatal("StragglerJob::start: already started");
    started_ = true;
    start_s_ = now_s;
    workers_.resize(static_cast<std::size_t>(config_.workers));
    for (auto &w : workers_) {
        auto id = cluster_->createContainer(config_.app,
                                            config_.cores_per_worker);
        if (!id)
            fatal("StragglerJob: cluster cannot host all workers");
        w.id = *id;
        w.handle = api::handleOf(*cluster_, *id);
    }
    beginRound();
}

void
StragglerJob::beginRound()
{
    for (auto &w : workers_) {
        w.progress = 0.0;
        w.round_done = false;
        w.rate_mult = rng_.bernoulli(config_.straggler_prob)
                          ? config_.straggler_rate
                          : 1.0;
        destroyReplica(w);
    }
}

void
StragglerJob::destroyReplica(Worker &w)
{
    if (w.replica_id != cop::kInvalidContainer) {
        if (cluster_->exists(w.replica_id))
            cluster_->destroyContainer(w.replica_id);
        w.replica_id = cop::kInvalidContainer;
        w.replica_handle = api::ContainerHandle{};
        w.replica_progress = 0.0;
    }
}

bool
StragglerJob::addReplica(int worker_idx)
{
    if (worker_idx < 0 ||
        worker_idx >= static_cast<int>(workers_.size()))
        fatal("StragglerJob::addReplica: bad worker index");
    Worker &w = workers_[static_cast<std::size_t>(worker_idx)];
    if (w.round_done || w.replica_id != cop::kInvalidContainer)
        return false;
    auto id = cluster_->createContainer(config_.app,
                                        config_.cores_per_worker);
    if (!id)
        return false;
    w.replica_id = *id;
    w.replica_handle = api::handleOf(*cluster_, *id);
    w.replica_progress = 0.0;
    ++replicas_issued_;
    return true;
}

std::vector<cop::ContainerId>
StragglerJob::containers() const
{
    std::vector<cop::ContainerId> out;
    out.reserve(workers_.size());
    for (const auto &w : workers_)
        out.push_back(w.id);
    return out;
}

void
StragglerJob::onTick(TimeS start_s, TimeS dt_s)
{
    if (!started_ || done())
        return;

    bool all_done = true;
    for (auto &w : workers_) {
        if (w.round_done) {
            // Barrier wait: I/O only.
            cluster_->setDemand(w.id, config_.io_demand);
            continue;
        }
        cluster_->setDemand(w.id, 1.0);
        double util = cluster_->container(w.id).effectiveUtil();
        w.progress += util * w.rate_mult * config_.cores_per_worker *
                      static_cast<double>(dt_s);

        if (w.replica_id != cop::kInvalidContainer) {
            cluster_->setDemand(w.replica_id, 1.0);
            double r_util =
                cluster_->container(w.replica_id).effectiveUtil();
            // Replicas are re-issued fresh and assumed non-straggling.
            w.replica_progress += r_util * config_.cores_per_worker *
                                  static_cast<double>(dt_s);
        }

        if (w.progress >= config_.round_work ||
            w.replica_progress >= config_.round_work) {
            w.round_done = true;
            destroyReplica(w);
            cluster_->setDemand(w.id, config_.io_demand);
        } else {
            all_done = false;
        }
    }

    if (all_done) {
        ++round_;
        if (done()) {
            completion_s_ = start_s + dt_s;
            for (auto &w : workers_) {
                destroyReplica(w);
                cluster_->setDemand(w.id, 0.0);
            }
        } else {
            beginRound();
        }
    }
}

} // namespace ecov::wl
