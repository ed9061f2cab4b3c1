#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <unistd.h>

namespace perfbench {

std::size_t
samplesBeyond(std::size_t n, double q)
{
    if (n == 0)
        return 0;
    // Nearest rank, 1-based: the smallest rank r with r / n >= q.
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    rank = std::clamp<std::size_t>(rank, 1, n);
    return n - rank;
}

std::optional<double>
percentile(std::vector<double> samples, double q)
{
    const std::size_t n = samples.size();
    if (n == 0 || samplesBeyond(n, q) < kMinBeyond)
        return std::nullopt;
    const std::size_t idx = n - samplesBeyond(n, q) - 1;
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<std::ptrdiff_t>(idx),
                     samples.end());
    return samples[idx];
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2]
                      : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

void
Report::add(const std::string &name, double value,
            const std::string &unit)
{
    metrics_[name] = {value, unit};
}

void
Report::addPercentile(const std::string &name,
                      const std::vector<double> &samples, double q,
                      const std::string &unit)
{
    const auto p = percentile(samples, q);
    char line[160];
    if (!p) {
        missing_.push_back(name);
        std::snprintf(line, sizeof line,
                      "%s not reported: %zu samples, %zu beyond", name.c_str(),
                      samples.size(), samplesBeyond(samples.size(), q));
        notes_.push_back(line);
        return;
    }
    add(name, *p, unit);
    std::snprintf(line, sizeof line, "%s = %.6g %s (n=%zu)", name.c_str(),
                  *p, unit.c_str(), samples.size());
    notes_.push_back(line);
}

void
Report::addMedianPercentile(const std::string &name,
                            const std::vector<std::vector<double>> &groups,
                            double q, const std::string &unit)
{
    std::vector<double> per_group;
    std::size_t n = 0, thinnest = groups.empty() ? 0 : SIZE_MAX;
    for (const auto &g : groups) {
        n += g.size();
        thinnest = std::min(thinnest, g.size());
        if (const auto p = percentile(g, q))
            per_group.push_back(*p);
    }
    char line[200];
    if (groups.empty() || per_group.size() != groups.size()) {
        missing_.push_back(name);
        std::snprintf(line, sizeof line,
                      "%s not reported: %zu groups, thinnest has %zu "
                      "samples, %zu beyond",
                      name.c_str(), groups.size(), thinnest,
                      samplesBeyond(thinnest, q));
        notes_.push_back(line);
        return;
    }
    const double value = median(per_group);
    add(name, value, unit);
    std::snprintf(line, sizeof line,
                  "%s = %.6g %s (median of %zu groups, n=%zu, thinnest "
                  "group %zu)",
                  name.c_str(), value, unit.c_str(), groups.size(), n,
                  thinnest);
    notes_.push_back(line);
}

bool
Report::checkNames(const std::vector<std::string> &expected,
                   std::string *why) const
{
    std::vector<std::string> got;
    for (const auto &[name, v] : metrics_)
        got.push_back(name);
    std::vector<std::string> want = expected;
    std::sort(want.begin(), want.end());
    if (got == want && missing_.empty())
        return true;
    std::ostringstream os;
    os << "metric set mismatch; missing:";
    for (const auto &w : want)
        if (!metrics_.count(w))
            os << ' ' << w;
    os << "; unexpected:";
    for (const auto &g : got)
        if (!std::binary_search(want.begin(), want.end(), g))
            os << ' ' << g;
    *why = os.str();
    return false;
}

void
Report::print(bool correct, std::uint64_t attempted,
              std::uint64_t failed) const
{
    for (const auto &n : notes_)
        std::printf("# %s\n", n.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    bool first = true;
    for (const auto &[name, v] : metrics_) {
        const double value = std::isfinite(v.first) ? v.first : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), value,
                    v.second.c_str());
        first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

std::uint64_t
totalAppends(const ecov::ts::TsDatabase &db)
{
    std::uint64_t n = 0;
    const auto count = static_cast<ecov::ts::SeriesId>(db.internedCount());
    for (ecov::ts::SeriesId id = 0; id < count; ++id)
        n += db.series(id).totalAppends();
    return n;
}

double
peakRssMb(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0; // kB -> MiB
    }
    return 0.0;
}

double
cpuSeconds(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string stat;
    if (!std::getline(in, stat))
        return -1.0;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    const auto close = stat.rfind(')');
    if (close == std::string::npos)
        return -1.0;
    std::istringstream rest(stat.substr(close + 2));
    std::string field;
    unsigned long long utime = 0, stime = 0;
    for (int i = 3; i <= 15 && rest >> field; ++i) {
        if (i == 14)
            utime = std::stoull(field);
        if (i == 15)
            stime = std::stoull(field);
    }
    return static_cast<double>(utime + stime) /
           static_cast<double>(::sysconf(_SC_CLK_TCK));
}

PhaseCut::PhaseCut(ecov::sim::Simulation *simul) : simul_(simul)
{
    using ecov::sim::TickPhase;
    const TickPhase phases[kTail] = {
        TickPhase::Environment, TickPhase::Policy, TickPhase::Workload,
        TickPhase::Accounting, TickPhase::Telemetry};
    for (int i = 0; i < kTail; ++i) {
        simul_->addListener(
            [this, i](ecov::TimeS, ecov::TimeS) {
                marks_[static_cast<std::size_t>(i)] = Clock::now();
            },
            phases[i], "perfbench-phase-cut");
    }
}

void
PhaseCut::step()
{
    const auto start = Clock::now();
    simul_->step();
    const auto end = Clock::now();
    auto prev = start;
    for (int i = 0; i < kTail; ++i) {
        const auto m = marks_[static_cast<std::size_t>(i)];
        last_[static_cast<std::size_t>(i)] = toUs(m - prev);
        prev = m;
    }
    last_[kTail] = toUs(end - prev);
    last_step_us_ = toUs(end - start);
}

} // namespace perfbench
