/**
 * @file
 * perfbench: the repository benchmark (see perfbench/README.md).
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             --ecovisord PATH --work-dir DIR --reference FILE
 *   perfbench host [ecovisord flags] --stats=PATH
 *   perfbench --write-reference SEED...
 *
 * perfbench/run.py builds this binary and ecovisord, then runs the
 * first form; the last line of stdout is the JSON result.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --ecovisord PATH --work-dir DIR "
                 "--reference FILE\n"
                 "       perfbench --write-reference SEED...\n");
    return 64;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    // One settlement thread in this process and in every child it
    // starts, whatever the inherited environment says.
    ::setenv("ECOV_THREADS", "1", 1);

    if (argc >= 2 && std::strcmp(argv[1], "host") == 0)
        return runHost(argc, argv);

    if (argc >= 2 && std::strcmp(argv[1], "--write-reference") == 0)
        return writeReference(argc, argv);

    RunOptions opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            opt.workload = v;
        else if (k == "--seed")
            opt.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            opt.seconds = std::atof(v.c_str());
        else if (k == "--trace")
            opt.trace = v == "1";
        else if (k == "--ecovisord")
            opt.ecovisord = v;
        else if (k == "--work-dir")
            opt.work_dir = v;
        else if (k == "--reference")
            opt.reference = v;
        else
            return usage();
    }
    if (opt.seconds <= 0)
        return usage();
    opt.self = std::filesystem::canonical("/proc/self/exe").string();
    if (opt.workload == "sim_paper_mix")
        return runSimMix(opt);
    if (opt.workload == "daemon_write_mix" ||
        opt.workload == "daemon_read_mix") {
        if (opt.ecovisord.empty() || opt.work_dir.empty())
            return usage();
        return runDaemonMix(opt);
    }
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return usage();
}
