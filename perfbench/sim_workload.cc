/**
 * @file
 * sim_paper_mix runner and the binding metric names.
 */

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <unistd.h>
#include <utility>

#include "bench.h"
#include "host_speed.h"
#include "paper_mix.h"
#include "stats.h"

namespace perfbench {

const std::vector<std::string> &
endToEndMetrics()
{
    static const std::vector<std::string> names = {
        "setup_s",           "sim_ticks_per_s", "req_per_s",
        "commit_rtt_p50_us", "read_rtt_p50_us", "peak_rss_mb",
    };
    return names;
}

const std::vector<std::string> &
perLayerMetrics()
{
    static const std::vector<std::string> names = {
        "sim.env_us",
        "policies.tick_us",
        "workloads.tick_us",
        "core.settle_us",
        "telemetry.query_ns",
        "telemetry.heap_mb",
        "telemetry.samples_per_tick",
        "cop.live_containers",
        "cop.creates",
        "net.ingest_us",
        "net.flush_us",
        "ckpt.wal_append_us",
        "ckpt.wal_bytes_per_tick",
        "ckpt.snapshot_us",
        "ckpt.snapshot_bytes",
        "ckpt.recover_ms",
        "ckpt.replayed_ticks",
        "daemon.ticks_per_round",
        "daemon.useful_tick_share",
        "server.frames_per_tick",
        "server.admission_rejects",
        "daemon.cpu_us_per_req",
        "client.send_ns",
        "client.await_ns",
        "commit_rtt_p90_us",
        "commit_rtt_p99_us",
        "read_rtt_p90_us",
        "read_rtt_p99_us",
        "trace.overhead_pct",
        "trace.coverage_pct",
        "failed_share",
        "host.kernel_us",
    };
    return names;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "sim_paper_mix", "daemon_write_mix", "daemon_read_mix"};
    return names;
}

namespace {

/** sim_paper_mix size: 16 copies of the four-app mix, two days. */
constexpr int kCopies = 16;
constexpr std::int64_t kHorizonTicks = 2 * 24 * 60;

/** Fewest repetitions per measured part, whatever --seconds says. */
constexpr int kMinReps = 3;

std::string
formatTotals(std::uint64_t seed, const DomainTotals &d)
{
    char buf[256];
    std::snprintf(buf, sizeof buf, "%" PRIu64 " %a %a %a %a %016" PRIx64,
                  seed, d.carbon_g, d.grid_wh, d.unserved_wh,
                  d.core_seconds, d.digest);
    return buf;
}

/** Stored reference totals by seed ("#" lines are comments). */
bool
loadReference(const std::string &path,
              std::map<std::uint64_t, DomainTotals> *out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream is(line);
        std::uint64_t seed = 0;
        std::string c, g, u, k, dig;
        if (!(is >> seed >> c >> g >> u >> k >> dig))
            return false;
        DomainTotals d;
        d.carbon_g = std::strtod(c.c_str(), nullptr);
        d.grid_wh = std::strtod(g.c_str(), nullptr);
        d.unserved_wh = std::strtod(u.c_str(), nullptr);
        d.core_seconds = std::strtod(k.c_str(), nullptr);
        d.digest = std::strtoull(dig.c_str(), nullptr, 16);
        (*out)[seed] = d;
    }
    return !out->empty();
}

/**
 * Repetitions of build + run, accumulated. Timings are at the nominal
 * host (see host_speed.h); `scale` keeps each repetition's factor.
 */
struct SimPart
{
    std::vector<double> setup_s, ticks_per_s, scale;
    /** Per-repetition samples; percentiles are taken per repetition. */
    std::vector<std::vector<double>> commit_us, read_us;
    MixTrace trace;
    int reps = 0;
    std::uint64_t attempted = 0, failed = 0;
    bool have_totals = false;
    DomainTotals totals;
    bool correct = true;
    std::string why;
};

void
runReps(std::uint64_t seed, double seconds, bool traced, HostSpeed *host,
        SimPart *part)
{
    // Every repetition is bracketed by two host kernel passes.
    if (host->passesUs().empty())
        host->pass();
    const auto start = Clock::now();
    while (part->reps < kMinReps || toSec(Clock::now() - start) < seconds) {
        const auto t0 = Clock::now();
        PaperMix mix(seed, kCopies, kHorizonTicks);
        const double setup_s = toSec(Clock::now() - t0);
        MixTickTimes times;
        const auto t1 = Clock::now();
        mix.run(kHorizonTicks, traced ? nullptr : &times,
                traced ? &part->trace : nullptr);
        const double run_s = toSec(Clock::now() - t1);
        const double scale = host->scaleSinceLastPass();
        part->scale.push_back(scale);
        part->setup_s.push_back(setup_s / scale);
        part->ticks_per_s.push_back(static_cast<double>(kHorizonTicks) /
                                    run_s * scale);
        if (!traced) {
            for (auto *v : {&times.commit_us, &times.read_us})
                for (double &x : *v)
                    x /= scale;
            part->commit_us.push_back(std::move(times.commit_us));
            part->read_us.push_back(std::move(times.read_us));
        }
        ++part->reps;
        part->attempted += static_cast<std::uint64_t>(mix.tenants()) +
                           mix.reads() +
                           static_cast<std::uint64_t>(kHorizonTicks);
        part->failed += mix.failedRegistrations() + mix.badReads();
        // Every repetition of one seed must land on the same state.
        const DomainTotals d = mix.totals();
        if (!part->have_totals) {
            part->totals = d;
            part->have_totals = true;
        } else if (!(d == part->totals) && part->correct) {
            part->correct = false;
            part->why = "repetition differs: " + formatTotals(seed, d) +
                        " vs " + formatTotals(seed, part->totals);
        }
    }
}

} // namespace

int
runSimMix(const RunOptions &opt)
{
    std::map<std::uint64_t, DomainTotals> reference;
    if (!loadReference(opt.reference, &reference)) {
        std::fprintf(stderr, "perfbench: cannot read reference %s\n",
                     opt.reference.c_str());
        return 1;
    }

    HostSpeed host;
    SimPart untraced;
    runReps(opt.seed, opt.trace ? opt.seconds / 2 : opt.seconds, false,
            &host, &untraced);
    // Only worlds of --seed have run so far.
    const double rss_mb = peakRssMb(::getpid());
    SimPart traced;
    if (opt.trace)
        runReps(opt.seed, opt.seconds / 2, true, &host, &traced);

    // The stored reference seeds last: bit-identical across processes.
    bool correct = true;
    std::string why;
    for (const auto &[seed, want] : reference) {
        PaperMix mix(seed, kCopies, kHorizonTicks);
        mix.run(kHorizonTicks, nullptr, nullptr);
        const DomainTotals got = mix.totals();
        if (!(got == want) && correct) {
            correct = false;
            why = "reference mismatch: " + formatTotals(seed, got) +
                  " vs stored " + formatTotals(seed, want);
        }
    }
    for (const SimPart *part : {&untraced, &traced}) {
        if (!part->correct && correct) {
            correct = false;
            why = part->why;
        }
    }

    Report rep;
    const std::uint64_t attempted = untraced.attempted + traced.attempted;
    const std::uint64_t failed = untraced.failed + traced.failed;
    if (!opt.trace) {
        rep.add("setup_s", median(untraced.setup_s), "s");
        rep.add("sim_ticks_per_s", median(untraced.ticks_per_s), "1/s");
        rep.add("req_per_s",
                median(untraced.ticks_per_s) * 4 * kCopies, "1/s");
        rep.add("peak_rss_mb", rss_mb, "MB");
        rep.addMedianPercentile("commit_rtt_p50_us", untraced.commit_us,
                                0.50, "us");
        rep.addMedianPercentile("read_rtt_p50_us", untraced.read_us, 0.50,
                                "us");
    } else {
        const MixTrace &t = traced.trace;
        const double ticks = std::max<double>(1.0, t.ticks);
        rep.add("sim.env_us", t.span_us[PhaseCut::kEnvironment] / ticks,
                "us");
        rep.add("policies.tick_us", t.span_us[PhaseCut::kPolicy] / ticks,
                "us");
        rep.add("workloads.tick_us", t.span_us[PhaseCut::kWorkload] / ticks,
                "us");
        rep.add("core.settle_us", t.span_us[PhaseCut::kAccounting] / ticks,
                "us");
        rep.add("telemetry.query_ns",
                t.queries ? t.query_ns / static_cast<double>(t.queries) : 0.0,
                "ns");
        rep.add("telemetry.heap_mb", t.heap_mb, "MB");
        rep.add("telemetry.samples_per_tick",
                static_cast<double>(t.appends) / ticks, "count");
        rep.add("cop.live_containers", t.live_containers / ticks, "count");
        rep.add("cop.creates",
                static_cast<double>(t.creates) / std::max(1, traced.reps),
                "count");
        for (const char *zero :
             {"net.ingest_us", "net.flush_us", "ckpt.wal_append_us",
              "ckpt.snapshot_us", "daemon.cpu_us_per_req"})
            rep.add(zero, 0.0, "us");
        rep.add("ckpt.wal_bytes_per_tick", 0.0, "B");
        rep.add("ckpt.snapshot_bytes", 0.0, "B");
        rep.add("ckpt.recover_ms", 0.0, "ms");
        rep.add("ckpt.replayed_ticks", 0.0, "count");
        rep.add("daemon.ticks_per_round", 0.0, "count");
        rep.add("daemon.useful_tick_share", 0.0, "share");
        rep.add("server.frames_per_tick", 0.0, "count");
        rep.add("server.admission_rejects", 0.0, "count");
        rep.add("client.send_ns", 0.0, "ns");
        rep.add("client.await_ns", 0.0, "ns");
        rep.addMedianPercentile("commit_rtt_p90_us", untraced.commit_us,
                                0.90, "us");
        rep.addMedianPercentile("commit_rtt_p99_us", untraced.commit_us,
                                0.99, "us");
        rep.addMedianPercentile("read_rtt_p90_us", untraced.read_us, 0.90,
                                "us");
        rep.addMedianPercentile("read_rtt_p99_us", untraced.read_us, 0.99,
                                "us");
        const double u = median(untraced.ticks_per_s);
        const double v = median(traced.ticks_per_s);
        rep.add("trace.overhead_pct", u > 0 ? 100.0 * (u - v) / u : 0.0,
                "%");
        double covered = t.read_block_us;
        for (int s = 0; s < PhaseCut::kTail; ++s)
            covered += t.span_us[s];
        rep.add("trace.coverage_pct",
                t.step_us > 0 ? 100.0 * covered / t.step_us : 0.0, "%");
        rep.add("failed_share",
                static_cast<double>(failed) / static_cast<double>(attempted),
                "share");
        rep.add("host.kernel_us", median(host.passesUs()), "us");
    }
    char note[200];
    std::snprintf(note, sizeof note,
                  "%d untraced + %d traced repetitions of %d tenants x %lld "
                  "ticks",
                  untraced.reps, traced.reps, 4 * kCopies,
                  static_cast<long long>(kHorizonTicks));
    rep.note(note);
    std::vector<double> measured;
    for (std::size_t i = 0; i < untraced.scale.size(); ++i)
        measured.push_back(untraced.ticks_per_s[i] / untraced.scale[i]);
    std::snprintf(note, sizeof note,
                  "host scale %.4f (kernel pass %.0f us, nominal %.0f us); "
                  "sim_ticks_per_s as measured %.6g",
                  median(untraced.scale), median(host.passesUs()),
                  HostSpeed::kNominalUs, median(measured));
    rep.note(note);
    if (!correct)
        rep.note("output check failed: " + why);
    std::string mismatch;
    const auto &names = opt.trace ? perLayerMetrics() : endToEndMetrics();
    if (!rep.checkNames(names, &mismatch)) {
        std::fprintf(stderr, "perfbench: %s\n", mismatch.c_str());
        rep.print(false, attempted, failed);
        return 1;
    }
    rep.print(correct, attempted, failed);
    return correct ? 0 : 1;
}

int
writeReference(int argc, char **argv)
{
    for (int i = 2; i < argc; ++i) {
        const std::uint64_t seed = std::strtoull(argv[i], nullptr, 10);
        PaperMix mix(seed, kCopies, kHorizonTicks);
        mix.run(kHorizonTicks, nullptr, nullptr);
        std::printf("%s\n", formatTotals(seed, mix.totals()).c_str());
    }
    return 0;
}

} // namespace perfbench
