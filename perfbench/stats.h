/**
 * @file
 * Measurement helpers shared by every perfbench workload: percentile
 * rules, the metric report (the JSON line the benchmark ends with),
 * /proc readers for a process's peak RSS and CPU time, and the
 * listener-based tick phase cut.
 */

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <sys/types.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/simulation.h"
#include "telemetry/ts_database.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Microseconds in a steady-clock duration. */
inline double
toUs(Clock::duration d)
{
    return std::chrono::duration<double, std::micro>(d).count();
}

/** Seconds in a steady-clock duration. */
inline double
toSec(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

/** A percentile is reported only with at least this many samples
 *  strictly above it. */
inline constexpr std::size_t kMinBeyond = 10;

/** Samples above the nearest-rank q-quantile of n samples. */
std::size_t samplesBeyond(std::size_t n, double q);

/**
 * Nearest-rank q-quantile (q in (0, 1)) of the samples, or nullopt
 * when fewer than kMinBeyond samples lie beyond it.
 */
std::optional<double> percentile(std::vector<double> samples, double q);

/** Median (mean of the two middle values for even n); 0 when empty. */
double median(std::vector<double> samples);

/**
 * Named metrics with units, printed as the benchmark's last stdout
 * line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
 */
class Report
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit);

    /**
     * Add a percentile of `samples` under `name`. A percentile without
     * kMinBeyond samples beyond it is not reported: the name is
     * recorded as missing, which fails checkNames().
     */
    void addPercentile(const std::string &name,
                       const std::vector<double> &samples, double q,
                       const std::string &unit);

    /**
     * Add the median over `groups` (one per repetition or episode) of
     * each group's percentile, so a host slowdown during one group
     * moves one value of the median instead of the pooled tail. Every
     * group must have kMinBeyond samples beyond its percentile;
     * otherwise the name is recorded as missing.
     */
    void addMedianPercentile(const std::string &name,
                             const std::vector<std::vector<double>> &groups,
                             double q, const std::string &unit);

    /** Print "name = value unit (n=...)" lines for humans. */
    void note(const std::string &line) { notes_.push_back(line); }

    /** The value reported under `name`, if any. */
    std::optional<double>
    value(const std::string &name) const
    {
        const auto it = metrics_.find(name);
        if (it == metrics_.end())
            return std::nullopt;
        return it->second.first;
    }

    /** True when the reported names are exactly `expected`. */
    bool checkNames(const std::vector<std::string> &expected,
                    std::string *why) const;

    /** Print the notes, then the JSON result line, to stdout. */
    void print(bool correct, std::uint64_t attempted,
               std::uint64_t failed) const;

  private:
    std::map<std::string, std::pair<double, std::string>> metrics_;
    std::vector<std::string> missing_;
    std::vector<std::string> notes_;
};

/** Samples ever appended across every interned telemetry series. */
std::uint64_t totalAppends(const ecov::ts::TsDatabase &db);

/** Peak resident set (VmHWM) of a process in MiB; 0 when unreadable. */
double peakRssMb(pid_t pid);

/** utime + stime of a process in seconds; -1 when unreadable. */
double cpuSeconds(pid_t pid);

/**
 * Cuts Simulation::step() into its TickPhase spans. One listener per
 * phase is registered after every other listener of the world (call
 * after Ecovisor::attach), so each fires at the end of its phase;
 * step() stamps the start and the end around Simulation::step().
 */
class PhaseCut
{
  public:
    /** Span slots: the five TickPhases plus the tail after Telemetry. */
    enum Span
    {
        kEnvironment,
        kPolicy,
        kWorkload,
        kAccounting,
        kTelemetry,
        kTail,
        kSpanCount
    };

    explicit PhaseCut(ecov::sim::Simulation *simul);
    PhaseCut(const PhaseCut &) = delete;
    PhaseCut &operator=(const PhaseCut &) = delete;

    /** Run one simulation step and record its phase spans. */
    void step();

    /** Durations (us) of the most recent step's spans. */
    const std::array<double, kSpanCount> &last() const { return last_; }

    /** Wall time (us) of the most recent step. */
    double lastStepUs() const { return last_step_us_; }

  private:
    ecov::sim::Simulation *simul_;
    std::array<Clock::time_point, kTail> marks_{};
    std::array<double, kSpanCount> last_{};
    double last_step_us_ = 0.0;
};

} // namespace perfbench

#endif // PERFBENCH_STATS_H
