/**
 * @file
 * `perfbench host`: the traced stand-in for ecovisord. It builds the
 * same world as src/net/ecovisord_main.cc (DaemonWorld) and runs the
 * same single-threaded loop — poll, WAL append, step, snapshot, flush —
 * timing each call, with the tick itself cut into its phases.
 *
 *   perfbench host --stats=PATH --nodes=N --seed=N
 *                  [--state-dir=DIR --fsync=never]
 *
 * SIGUSR2 starts the measurement window, SIGUSR1 writes the window's
 * totals to PATH as "key value" lines, SIGTERM/SIGINT stop the loop
 * the way ecovisord stops.
 */

#include <sys/stat.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "bench.h"
#include "daemon_world.h"
#include "net/socket.h"
#include "stats.h"

namespace perfbench {

namespace {

using namespace ecov;

std::atomic<bool> g_stop{false};
std::atomic<bool> g_reset{false};
std::atomic<bool> g_dump{false};

void onStop(int) { g_stop.store(true); }
void onReset(int) { g_reset.store(true); }
void onDump(int) { g_dump.store(true); }

std::uint64_t
fileSize(const std::string &path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0
               ? static_cast<std::uint64_t>(st.st_size)
               : 0;
}

/** Window accumulators of the traced host. */
struct HostWindow
{
    Clock::time_point start = Clock::now();
    double ticks = 0, ingest_us = 0, wal_us = 0, endtick_us = 0;
    double snapshot_us = 0, snapshot_ticks = 0, snapshot_bytes = 0;
    double flush_us = 0, wal_bytes = 0, wal_ticks = 0, useful_ticks = 0;
    double span_us[PhaseCut::kSpanCount] = {};
    double live_containers = 0;
    std::uint64_t frames0 = 0, rejects0 = 0, appends0 = 0;
    cop::ContainerId next_id0 = 0;
};

bool
parseArg(const char *arg, const char *name, std::string *out)
{
    const std::size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) != 0 || arg[n] != '=')
        return false;
    *out = arg + n + 1;
    return true;
}

} // namespace

int
runHost(int argc, char **argv)
{
    DaemonFlags flags;
    std::string stats_path, value;
    for (int i = 2; i < argc; ++i) {
        const char *a = argv[i];
        if (parseArg(a, "--stats", &stats_path))
            continue;
        if (parseArg(a, "--nodes", &value))
            flags.nodes = std::atoi(value.c_str());
        else if (parseArg(a, "--seed", &value))
            flags.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (parseArg(a, "--state-dir", &value))
            flags.state_dir = value;
        else if (std::strcmp(a, "--fsync=never") == 0)
            continue;
        else {
            std::fprintf(stderr, "perfbench host: unknown argument %s\n", a);
            return 64;
        }
    }
    if (stats_path.empty() || flags.nodes < 1) {
        std::fprintf(stderr, "perfbench host: --stats and --nodes>=1 needed\n");
        return 64;
    }
    DaemonWorld w(flags);
    PhaseCut cut(&w.simul);
    if (w.ckpt) {
        const api::Status st = w.ckpt->recover();
        if (!st.ok()) {
            std::fprintf(stderr, "perfbench host: recovery failed: %s\n",
                         st.message().c_str());
            return 1;
        }
    }
    auto tcp = net::TcpServer::create(&w.server, net::TcpServerOptions{});
    if (!tcp.ok()) {
        std::fprintf(stderr, "perfbench host: %s\n",
                     tcp.status().message().c_str());
        return 1;
    }
    std::signal(SIGINT, onStop);
    std::signal(SIGTERM, onStop);
    std::signal(SIGUSR1, onDump);
    std::signal(SIGUSR2, onReset);
    std::signal(SIGPIPE, SIG_IGN);
    std::printf("ecovisord: listening on 127.0.0.1:%u\n",
                static_cast<unsigned>(tcp.value()->port()));
    std::fflush(stdout);

    net::TcpServer &server = *tcp.value();
    HostWindow win;
    std::uint64_t wal_size = w.ckpt ? fileSize(w.ckpt->walPath()) : 0;
    auto resetWindow = [&] {
        win = HostWindow{};
        win.frames0 = w.server.stats().frames_decoded;
        win.rejects0 = w.server.stats().admission_rejects;
        win.appends0 = totalAppends(w.eco.db());
        win.next_id0 = w.cluster.captureState().next_id;
        win.start = Clock::now();
    };
    resetWindow();
    long long ticks = 0;
    while (!g_stop.load()) {
        if (g_reset.exchange(false))
            resetWindow();
        if (g_dump.exchange(false)) {
            const double window_us = toUs(Clock::now() - win.start);
            double covered = win.ingest_us + win.wal_us + win.endtick_us +
                             win.flush_us;
            for (double s : win.span_us)
                covered += s;
            const std::string tmp = stats_path + ".tmp";
            {
                std::ofstream out(tmp);
                out.precision(17);
                out << "ticks " << win.ticks << "\n"
                    << "window_us " << window_us << "\n"
                    << "covered_us " << covered << "\n"
                    << "ingest_us " << win.ingest_us << "\n"
                    << "wal_us " << win.wal_us << "\n"
                    << "env_us " << win.span_us[PhaseCut::kEnvironment]
                    << "\n"
                    << "policy_us " << win.span_us[PhaseCut::kPolicy] << "\n"
                    << "workload_us " << win.span_us[PhaseCut::kWorkload]
                    << "\n"
                    << "accounting_us " << win.span_us[PhaseCut::kAccounting]
                    << "\n"
                    << "snapshot_us " << win.snapshot_us << "\n"
                    << "snapshot_ticks " << win.snapshot_ticks << "\n"
                    << "snapshot_bytes " << win.snapshot_bytes << "\n"
                    << "flush_us " << win.flush_us << "\n"
                    << "wal_bytes " << win.wal_bytes << "\n"
                    << "wal_ticks " << win.wal_ticks << "\n"
                    << "useful_ticks " << win.useful_ticks << "\n"
                    << "frames "
                    << w.server.stats().frames_decoded - win.frames0 << "\n"
                    << "admission_rejects "
                    << w.server.stats().admission_rejects - win.rejects0
                    << "\n"
                    << "appends " << totalAppends(w.eco.db()) - win.appends0
                    << "\n"
                    << "heap_mb "
                    << static_cast<double>(w.eco.db().memoryBytes()) /
                           (1 << 20)
                    << "\n"
                    << "live_containers " << win.live_containers << "\n"
                    << "creates "
                    << w.cluster.captureState().next_id - win.next_id0
                    << "\n";
            }
            std::rename(tmp.c_str(), stats_path.c_str());
        }

        const auto t0 = Clock::now();
        if (!server.poll(0)) {
            std::fprintf(stderr, "perfbench host: listener failed\n");
            return 1;
        }
        const auto t1 = Clock::now();
        if (w.ckpt && !w.ckpt->beginTick().ok()) {
            std::fprintf(stderr, "perfbench host: WAL append failed\n");
            return 1;
        }
        const auto t2 = Clock::now();
        const std::uint64_t committed0 = w.server.stats().coalesced_committed;
        cut.step();
        ++ticks;
        const bool useful =
            w.server.stats().coalesced_committed > committed0;
        const auto t3 = Clock::now();
        if (w.ckpt && !w.ckpt->endTick().ok()) {
            std::fprintf(stderr, "perfbench host: snapshot failed\n");
            return 1;
        }
        const auto t4 = Clock::now();
        if (!server.poll(0)) {
            std::fprintf(stderr, "perfbench host: listener failed\n");
            return 1;
        }
        const auto t5 = Clock::now();

        win.ticks += 1;
        win.ingest_us += toUs(t1 - t0);
        win.wal_us += toUs(t2 - t1);
        for (int s = 0; s < PhaseCut::kSpanCount; ++s)
            win.span_us[s] += cut.last()[static_cast<std::size_t>(s)];
        win.endtick_us += toUs(t4 - t3);
        win.flush_us += toUs(t5 - t4);
        win.useful_ticks += useful ? 1 : 0;
        win.live_containers += w.cluster.containerCount();
        if (w.ckpt) {
            // Off snapshot ticks the WAL grew by exactly this tick's
            // record; a snapshot tick resets it.
            const std::uint64_t size = fileSize(w.ckpt->walPath());
            if (w.simul.clock().tickCount() % kCheckpointEveryTicks == 0) {
                win.snapshot_us += toUs(t4 - t3);
                win.snapshot_ticks += 1;
                win.snapshot_bytes = static_cast<double>(
                    fileSize(w.ckpt->snapshotPath()));
            } else {
                win.wal_bytes += static_cast<double>(size - wal_size);
                win.wal_ticks += 1;
            }
            wal_size = size;
        }
    }

    if (w.ckpt) {
        const api::Status st = w.ckpt->writeSnapshot();
        if (!st.ok())
            std::fprintf(stderr, "perfbench host: final snapshot failed\n");
        std::printf("ecovisord: state digest %016llx\n",
                    static_cast<unsigned long long>(w.ckpt->digest()));
    }
    w.server.beginDrain();
    server.poll(0);
    server.shutdownAll();
    const net::ServerStats &st = w.server.stats();
    std::printf("ecovisord: %lld ticks, %llu frames, %llu committed, "
                "exiting cleanly\n",
                ticks, static_cast<unsigned long long>(st.frames_decoded),
                static_cast<unsigned long long>(st.coalesced_committed));
    return 0;
}

} // namespace perfbench
