/**
 * @file
 * Host-speed reference: a fixed in-cache kernel timed between the
 * measured parts of a run.
 *
 * The shared machines this benchmark runs on change speed by 1.4-2x
 * over minutes (other tenants' load on the same cores and caches), and
 * a whole run slows or speeds up with them, so no amount of measuring
 * inside one run averages the drift away. Each measured part (a
 * sim_paper_mix repetition, a daemon episode) is therefore bracketed
 * by two passes of this kernel, and its timings are reported at a
 * nominal host on which one pass takes kNominalUs:
 *
 *     time at nominal host = time measured / scale
 *     rate at nominal host = rate measured * scale
 *     scale                = mean(pass before, pass after) / kNominalUs
 *
 * The kernel is the benchmark's own code and touches none of the
 * program's memory: open-addressing hash inserts and lookups and a
 * sort over ~1.5 MB of preallocated buffers, with fixed inputs. A
 * change to the program moves the measured time and leaves the
 * kernel's alone, so a speed-up or slow-down of the program shows in
 * full in the scaled value. The raw values are printed beside the
 * scaled ones on the '#' lines.
 */

#ifndef PERFBENCH_HOST_SPEED_H
#define PERFBENCH_HOST_SPEED_H

#include <cstdint>
#include <vector>

namespace perfbench {

class HostSpeed
{
  public:
    /** One kernel pass on the nominal host, in microseconds. */
    static constexpr double kNominalUs = 30000.0;

    HostSpeed();

    /**
     * Time one kernel pass (after an untimed warm-up round that loads
     * its buffers into cache) and remember it. Returns microseconds.
     */
    double pass();

    /**
     * Scale of the part measured since the previous pass (there must
     * be one): the mean of that pass and a new one, over kNominalUs.
     * Greater than 1 when the host runs slower than nominal.
     */
    double scaleSinceLastPass();

    /** Every pass timed so far, in microseconds. */
    const std::vector<double> &passesUs() const { return passes_us_; }

  private:
    void round();

    std::vector<std::uint64_t> keys_;
    std::vector<double> slots_;
    std::vector<double> vals_;
    std::uint64_t rng_ = 0;
    double sink_ = 0.0;
    std::vector<double> passes_us_;
};

} // namespace perfbench

#endif // PERFBENCH_HOST_SPEED_H
