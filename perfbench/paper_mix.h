/**
 * @file
 * sim_paper_mix: the paper's four-application mix embedded in-process.
 *
 * One core::Ecovisor + sim::Simulation at 60 s ticks, no transport and
 * no state directory. The world holds `copies` copies of the mix — a
 * web service under the dynamic carbon budget, a batch job under
 * wait-and-scale, a Spark job under the dynamic battery policy and a
 * straggler job under dynamic solar caps — and every tenant owns a
 * solar share and a virtual battery. Telemetry recording is on with
 * retention bounded to one simulated day, and every tenant reads its
 * last-hour energy and carbon through EcoLib on every tick.
 *
 * The world is built only from src/ public headers and the v2 handles.
 */

#ifndef PERFBENCH_PAPER_MIX_H
#define PERFBENCH_PAPER_MIX_H

#include <cstdint>
#include <memory>
#include <vector>

#include "stats.h"

namespace perfbench {

/** Observable results of one run, compared bit for bit. */
struct DomainTotals
{
    double carbon_g = 0.0;     ///< sum of tenant carbon
    double grid_wh = 0.0;      ///< sum of tenant grid energy
    double unserved_wh = 0.0;  ///< demand shed by the ecovisor
    double core_seconds = 0.0; ///< allocated container cores x time
    std::uint64_t digest = 0;  ///< ckpt::snapshotDigest of the world

    bool operator==(const DomainTotals &) const = default;
};

/** Per-tick timings of the untraced run (the end-to-end analogs). */
struct MixTickTimes
{
    /** Policy start to Accounting end: how long a tenant's control
     *  call waits for its settlement in-process. */
    std::vector<double> commit_us;
    /** One tenant's EcoLib last-hour energy + carbon read. */
    std::vector<double> read_us;
};

/** Per-layer accumulators of the traced run. */
struct MixTrace
{
    std::int64_t ticks = 0;
    double span_us[PhaseCut::kSpanCount] = {};
    double step_us = 0.0;       ///< step wall time plus the read block
    double read_block_us = 0.0; ///< tenants' EcoLib reads before step
    double query_ns = 0.0;      ///< summed per-call EcoLib query time
    std::int64_t queries = 0;
    std::uint64_t appends = 0;  ///< telemetry samples appended
    double heap_mb = 0.0;       ///< TsDatabase::memoryBytes at the end
    double live_containers = 0.0; ///< mean over ticks
    std::int64_t creates = 0;   ///< containers created during the run
};

class PaperMix
{
  public:
    /** Build the world (tenants registered, containers spawned). */
    PaperMix(std::uint64_t seed, int copies, std::int64_t horizon_ticks);
    ~PaperMix();
    PaperMix(const PaperMix &) = delete;
    PaperMix &operator=(const PaperMix &) = delete;

    /** Tenants registered. */
    int tenants() const;

    /**
     * Step `ticks` ticks. Appends per-tick timings to `times` when
     * non-null; accumulates per-layer spans into `trace` when
     * non-null (the traced run).
     */
    void run(std::int64_t ticks, MixTickTimes *times, MixTrace *trace);

    /** Output-check values at the current tick boundary. */
    DomainTotals totals() const;

    /** EcoLib reads that returned a non-finite or negative value. */
    std::uint64_t badReads() const { return bad_reads_; }

    /** EcoLib reads issued so far. */
    std::uint64_t reads() const { return reads_; }

    /** Tenant registrations (tryAddApp) that did not return Ok. */
    std::uint64_t failedRegistrations() const;

  private:
    struct World;
    std::unique_ptr<World> w_;
    std::uint64_t bad_reads_ = 0;
    std::uint64_t reads_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_PAPER_MIX_H
