/**
 * @file
 * The benchmark's own tests:
 *
 *   perfbench_selftest BENCHMARK.json
 *
 * 1. percentile and sample-count math;
 * 2. the metric and workload names the binary emits are exactly the
 *    ones BENCHMARK.json declares;
 * 3. the listener-cut phase spans of a small world account for the
 *    wall time of the stepping loop within a few percent;
 * 4. the host-speed scale is the mean of the two bracketing kernel
 *    passes over the nominal pass time.
 *
 * Exits 0 when every check passes.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "bench.h"
#include "host_speed.h"
#include "paper_mix.h"
#include "stats.h"
#include "util/json.h"

namespace {

using namespace perfbench;

int g_failures = 0;

void
check(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++g_failures;
}

std::vector<double>
iota(int n)
{
    std::vector<double> v;
    for (int i = 1; i <= n; ++i)
        v.push_back(i);
    return v;
}

void
testPercentiles()
{
    // Nearest rank: the q-quantile of 1..n is ceil(q n).
    check(samplesBeyond(100, 0.5) == 50, "100 samples: 50 beyond p50");
    check(samplesBeyond(100, 0.9) == 10, "100 samples: 10 beyond p90");
    check(samplesBeyond(100, 0.99) == 1, "100 samples: 1 beyond p99");
    check(samplesBeyond(0, 0.5) == 0, "no samples: none beyond");

    check(percentile(iota(100), 0.5) == 50.0, "p50 of 1..100 is 50");
    check(percentile(iota(100), 0.9) == 90.0, "p90 of 1..100 is 90");
    check(!percentile(iota(100), 0.99), "p99 of 100 samples withheld");
    check(percentile(iota(1000), 0.99) == 990.0, "p99 of 1..1000 is 990");
    check(!percentile(iota(99), 0.9), "p90 of 99 samples withheld (9 beyond)");
    check(!percentile(iota(19), 0.5), "p50 of 19 samples withheld");
    check(percentile(iota(20), 0.5) == 10.0, "p50 of 20 samples reported");

    std::vector<double> shuffled = {5, 3, 9, 1, 7};
    check(median(shuffled) == 5.0, "median of odd count");
    check(median({4, 1, 3, 2}) == 2.5, "median of even count");

    Report rep;
    rep.addPercentile("x_p90", iota(50), 0.9, "us");
    std::string why;
    check(!rep.checkNames({"x_p90"}, &why),
          "a withheld percentile fails the name check");

    // Per-group percentiles, then their median: p50s 50, 100, 500.
    std::vector<std::vector<double>> groups = {iota(100), iota(200),
                                               iota(1000)};
    Report med;
    med.addMedianPercentile("x_p50", groups, 0.5, "us");
    check(med.checkNames({"x_p50"}, &why) && med.value("x_p50") == 100.0,
          "median of group p50s is 100");
    groups.push_back(iota(15));
    Report thin;
    thin.addMedianPercentile("x_p50", groups, 0.5, "us");
    check(!thin.checkNames({"x_p50"}, &why),
          "one group too thin withholds the median percentile");
    Report none;
    none.addMedianPercentile("x_p50", {}, 0.5, "us");
    check(!none.checkNames({"x_p50"}, &why), "no groups: withheld");
}

std::set<std::string>
names(const ecov::JsonValue *array)
{
    std::set<std::string> out;
    if (!array || !array->isArray())
        return out;
    for (const auto &m : array->asArray())
        out.insert(m.stringOr("name", ""));
    return out;
}

void
testNames(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    std::string err;
    auto doc = ecov::JsonValue::parse(ss.str(), &err);
    check(doc.has_value(), "BENCHMARK.json parses " + err);
    if (!doc)
        return;
    const auto &e2e = endToEndMetrics();
    const auto &layer = perLayerMetrics();
    const auto &wl = workloadNames();
    check(names(doc->find("end_to_end")) ==
              std::set<std::string>(e2e.begin(), e2e.end()),
          "end_to_end names match the emitted set");
    check(names(doc->find("per_layer")) ==
              std::set<std::string>(layer.begin(), layer.end()),
          "per_layer names match the emitted set");
    check(names(doc->find("workloads")) ==
              std::set<std::string>(wl.begin(), wl.end()),
          "workload names match");
}

void
testPhaseCoverage()
{
    PaperMix mix(3, /*copies=*/2, /*horizon_ticks=*/600);
    mix.run(60, nullptr, nullptr); // warm up
    MixTrace trace;
    const auto t0 = Clock::now();
    mix.run(600, nullptr, &trace);
    const double loop_us = toUs(Clock::now() - t0);
    double spans = trace.read_block_us;
    for (int s = 0; s < PhaseCut::kTail; ++s)
        spans += trace.span_us[s];
    const double share = spans / loop_us;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "phase spans cover %.1f%% of the stepping loop "
                  "(%.0f of %.0f us)",
                  100.0 * share, spans, loop_us);
    check(share > 0.95 && share <= 1.0, buf);
    check(trace.ticks == 600, "every tick traced");
}

void
testHostScale()
{
    HostSpeed host;
    const double before = host.pass();
    const double scale = host.scaleSinceLastPass();
    const double after = host.passesUs().back();
    check(host.passesUs().size() == 2 && before > 0.0 && after > 0.0,
          "host kernel: one pass per call");
    check(std::fabs(scale - 0.5 * (before + after) / HostSpeed::kNominalUs) <
              1e-12,
          "host scale = mean of bracketing passes / nominal");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: perfbench_selftest BENCHMARK.json\n");
        return 64;
    }
    testPercentiles();
    testNames(argv[1]);
    testPhaseCoverage();
    testHostScale();
    std::printf("%s: %d failure(s)\n", g_failures ? "FAIL" : "PASS",
                g_failures);
    return g_failures ? 1 : 0;
}
