/**
 * @file
 * perfbench entry points and the binding metric names.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             --ecovisord PATH --work-dir DIR --reference FILE
 *   perfbench host [ecovisord flags] --stats=PATH
 *
 * The first form runs one workload and prints the result line; the
 * second is the traced ecovisord host the daemon workloads start as
 * their child in the traced run.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string ecovisord;  ///< built daemon binary
    std::string self;       ///< this binary (started as the traced host)
    std::string work_dir;   ///< scratch for state directories
    std::string reference;  ///< stored sim_paper_mix reference values
};

/** Metrics printed with tracing off, on every workload. */
const std::vector<std::string> &endToEndMetrics();

/** Metrics printed by the traced run, on every workload. */
const std::vector<std::string> &perLayerMetrics();

/** The workload names. */
const std::vector<std::string> &workloadNames();

int runSimMix(const RunOptions &options);
int runDaemonMix(const RunOptions &options);
int runHost(int argc, char **argv);

/** Print reference lines for the seeds in argv[2..]. */
int writeReference(int argc, char **argv);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
