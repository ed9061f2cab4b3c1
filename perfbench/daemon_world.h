/**
 * @file
 * The ecovisord world, built the way src/net/ecovisord_main.cc builds
 * it: a synthetic California carbon day, solar at 100 W peak per node,
 * the paper's 1440 Wh battery, a cluster of `nodes` x `cores`, one
 * Ecovisor attached to a Simulation, a ServerCore front-end and — with
 * a state directory — a CheckpointManager.
 *
 * perfbench uses it twice: to recover a daemon's state directory
 * in-process (the write-mix output check and ckpt.recover_ms), and as
 * the traced host that times each call of the daemon loop.
 */

#ifndef PERFBENCH_DAEMON_WORLD_H
#define PERFBENCH_DAEMON_WORLD_H

#include <cstdint>
#include <memory>
#include <string>

#include "carbon/carbon_signal.h"
#include "ckpt/manager.h"
#include "core/ecovisor.h"
#include "energy/solar_array.h"
#include "net/server.h"
#include "sim/simulation.h"

namespace perfbench {

/** ecovisord's snapshot cadence (its --checkpoint-every-ticks default). */
inline constexpr std::int64_t kCheckpointEveryTicks = 32;

/**
 * The ecovisord flags the benchmark varies. Everything else is the
 * daemon's default (8 cores per node, 60 s ticks, a snapshot every
 * kCheckpointEveryTicks) and --fsync=never.
 */
struct DaemonFlags
{
    int nodes = 64;
    std::uint64_t seed = 7;
    std::string state_dir; ///< empty = no persistence
};

class DaemonWorld
{
  public:
    explicit DaemonWorld(const DaemonFlags &flags);
    DaemonWorld(const DaemonWorld &) = delete;
    DaemonWorld &operator=(const DaemonWorld &) = delete;

    ecov::carbon::TraceCarbonSignal signal;
    ecov::energy::GridConnection grid;
    ecov::energy::SolarArray solar;
    ecov::cop::Cluster cluster;
    ecov::energy::PhysicalEnergySystem phys;
    ecov::core::Ecovisor eco;
    ecov::sim::Simulation simul;
    ecov::net::ServerCore server;
    /** Null without a state directory. */
    std::unique_ptr<ecov::ckpt::CheckpointManager> ckpt;
};

} // namespace perfbench

#endif // PERFBENCH_DAEMON_WORLD_H
