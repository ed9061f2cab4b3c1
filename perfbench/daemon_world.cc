#include "daemon_world.h"

#include "carbon/region_traces.h"

namespace perfbench {

namespace {

using namespace ecov;

energy::SolarTraceConfig
daemonSolar(int nodes)
{
    energy::SolarTraceConfig cfg;
    cfg.peak_w = 100.0 * static_cast<double>(nodes);
    cfg.cloudiness = 0.2;
    return cfg;
}

power::ServerPowerConfig
daemonNode()
{
    power::ServerPowerConfig cfg;
    cfg.cores = 8;
    return cfg;
}

} // namespace

DaemonWorld::DaemonWorld(const DaemonFlags &flags)
    : signal(carbon::makeRegionTrace(carbon::californiaProfile(),
                                     /*days=*/30,
                                     static_cast<int>(flags.seed))),
      grid(&signal),
      solar(energy::makeSolarTrace(daemonSolar(flags.nodes),
                                   static_cast<int>(flags.seed))),
      cluster(flags.nodes, daemonNode()),
      phys(&grid, &solar, energy::BatteryConfig{}), eco(&cluster, &phys),
      simul(60), server(&eco, {})
{
    eco.attach(simul);
    if (flags.state_dir.empty())
        return;
    ckpt::World world;
    world.sim = &simul;
    world.eco = &eco;
    world.cluster = &cluster;
    world.phys = &phys;
    world.grid = &grid;
    world.server = &server;
    ckpt::CheckpointOptions opts;
    opts.dir = flags.state_dir;
    opts.every_ticks = kCheckpointEveryTicks;
    opts.fsync = ckpt::FsyncPolicy::Never;
    ckpt = std::make_unique<ckpt::CheckpointManager>(world, opts);
}

} // namespace perfbench
