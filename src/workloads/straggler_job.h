/**
 * @file
 * Synthetic bulk-synchronous parallel job with straggler injection
 * (Section 5.4).
 *
 * The job proceeds in rounds. In each round every worker computes a
 * fixed quantum of work and then waits at a barrier, performing only
 * I/O (near-idle demand) until the slowest worker arrives. Stragglers
 * are injected per (worker, round) with configurable probability and
 * slowdown. Worker compute speed is proportional to the effective
 * utilization the COP grants — which is how per-container power caps
 * (vertical scaling) translate into progress, and why dynamically
 * rebalancing caps toward busy workers shortens rounds.
 *
 * Straggler mitigation: a policy may issue a replica for a slow task;
 * the round's task completes when either copy finishes (at most one
 * replica's work is useful, the rest is discarded — the "productive
 * use of excess energy" trade Figure 11 quantifies).
 */

#ifndef ECOV_WORKLOADS_STRAGGLER_JOB_H
#define ECOV_WORKLOADS_STRAGGLER_JOB_H

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "api/handle.h"
#include "cop/cluster.h"
#include "util/rng.h"
#include "util/units.h"

namespace ecov::wl {

/** Straggler job configuration. */
struct StragglerJobConfig
{
    std::string app;              ///< application name on the COP
    int workers = 10;             ///< one task per worker per round
    int rounds = 12;              ///< barrier rounds to complete
    double round_work = 600.0;    ///< core-seconds per task per round
    double cores_per_worker = 1.0;
    double io_demand = 0.05;      ///< demand while waiting at barrier
    double straggler_prob = 0.0;  ///< per (worker, round) probability
    double straggler_rate = 0.4;  ///< straggler compute-rate multiplier
    std::uint64_t seed = 1;       ///< straggler injection stream
};

/**
 * The job. Policies inspect each worker (worker()) and may set power
 * caps (through the ecovisor) or request replicas.
 */
class StragglerJob
{
  public:
    /**
     * @param cluster borrowed COP
     * @param config job parameters
     */
    StragglerJob(cop::Cluster *cluster, StragglerJobConfig config);

    ~StragglerJob();

    StragglerJob(const StragglerJob &) = delete;
    StragglerJob &operator=(const StragglerJob &) = delete;

    /** Launch: create the worker containers and start round 0. */
    void start(TimeS now_s);

    /** Job configuration (the owning app name lives here). */
    const StragglerJobConfig &config() const { return config_; }

    /** True when all rounds have completed. */
    bool done() const { return round_ >= config_.rounds; }

    /** Current round index. */
    int round() const { return round_; }

    /** Completion time; valid once done(). */
    TimeS completionTime() const { return completion_s_; }

    /** Start time. */
    TimeS startTime() const { return start_s_; }

    /**
     * One worker as policies see it: its containers as v2 handles,
     * resolved once when they were created, so a policy can cap them
     * with no id lookup and no allocation per tick.
     */
    struct WorkerView
    {
        api::ContainerHandle container; ///< primary
        api::ContainerHandle replica;   ///< invalid when none
        bool computing;                 ///< still working this round
        double round_progress;          ///< fraction of round done

        /** True while a replica is running. */
        bool hasReplica() const { return replica.valid(); }
    };

    /** Number of workers (0 before start()). */
    std::size_t workerCount() const { return workers_.size(); }

    /** The current view of worker `i` (< workerCount()). */
    WorkerView
    worker(std::size_t i) const
    {
        const Worker &w = workers_[i];
        return WorkerView{w.handle, w.replica_handle, !w.round_done,
                          std::min(1.0, w.progress / config_.round_work)};
    }

    /**
     * Issue a replica for a worker's current-round task. No-op when
     * the worker already has one, is finished, or the cluster is full.
     *
     * @return true when a replica container was created
     */
    bool addReplica(int worker_idx);

    /** Total replicas issued over the job's lifetime. */
    int replicasIssued() const { return replicas_issued_; }

    /** Primary container ids (replicas excluded). */
    std::vector<cop::ContainerId> containers() const;

    /** Advance one tick. */
    void onTick(TimeS start_s, TimeS dt_s);

  private:
    struct Worker
    {
        cop::ContainerId id = cop::kInvalidContainer;
        double progress = 0.0;       ///< core-seconds done this round
        double rate_mult = 1.0;      ///< 1.0 or straggler_rate
        bool round_done = false;
        cop::ContainerId replica_id = cop::kInvalidContainer;
        double replica_progress = 0.0;
        api::ContainerHandle handle;         ///< of id
        api::ContainerHandle replica_handle; ///< of replica_id
    };

    void beginRound();
    void destroyReplica(Worker &w);

    cop::Cluster *cluster_;
    StragglerJobConfig config_;
    Rng rng_;
    std::vector<Worker> workers_;
    int round_ = 0;
    bool started_ = false;
    int replicas_issued_ = 0;
    TimeS start_s_ = 0;
    TimeS completion_s_ = -1;
};

} // namespace ecov::wl

#endif // ECOV_WORKLOADS_STRAGGLER_JOB_H
