/**
 * @file
 * Time series with interval queries and optional bounded retention.
 *
 * Substitute for the prototype's InfluxDB store: the ecovisor records
 * power, energy and carbon samples here and the Table 2 library
 * functions answer interval queries (energy/carbon over (t1, t2))
 * against it.
 *
 * By default a series is append-only and unbounded — bit-identical to
 * the seed behavior. With a RetentionConfig (setRetention(), or
 * EcovisorOptions::retention_samples / retention_window_s) it becomes
 * a three-tier bounded store (docs/PERF.md "Retention tiers"):
 *
 *  - **hot tier**: the raw samples inside the retention bound, held
 *    as a row range [first, end) of one column of a ts::Frame
 *    (frame.h). A series recorded through the database's row API
 *    (TsDatabase::beginRow/put/endRow) is a column of the database's
 *    shared frame and reads the shared time column; a series written
 *    through append() — or one whose shared rows outlive their chunk
 *    — owns a private one-column frame with its own timestamps. Both
 *    owners give the same storage and the same query walk. Eviction
 *    advances `first` past an aligned prefix in batches.
 *  - **cold blocks**: evicted spans sealed into delta-of-delta /
 *    XOR-compressed blocks (block.h) — still lossless; queries decode
 *    them transparently, so every interval query is bit-identical to
 *    the unbounded series over the whole cold+hot coverage, a
 *    superset of the guaranteed raw window.
 *  - **rollups**: minute/hour buckets (retention.h) answering queries
 *    older than the cold span at bucket resolution; older than the
 *    hour tier, evicted history reads as 0 (clamped, never
 *    extrapolated). A private frame records the hour tier on every
 *    append; a shared column folds its rows in just before each seal
 *    and when it ends. Rows not folded yet are then always newer than
 *    the last seal, and the integral, sum and max queries only read
 *    hour buckets that end before the minute tier's start, which is
 *    at or before that seal's newest row; valueAt() and hourTier()
 *    take the unfolded rows into account. The minute tier is folded
 *    from each cold block as it retires, since it only ever answers
 *    windows behind the oldest retained block.
 */

#ifndef ECOV_TELEMETRY_TIME_SERIES_H
#define ECOV_TELEMETRY_TIME_SERIES_H

#include <cstddef>
#include <cstdint>
#include <limits>

#include "telemetry/block.h"
#include "telemetry/frame.h"
#include "telemetry/retention.h"
#include "telemetry/sample.h"
#include "util/units.h"

namespace ecov::ts {

/**
 * Series of (time, value) samples with monotonically non-decreasing
 * timestamps and optional bounded retention.
 *
 * Two interpretations are supported by the query methods:
 *  - *gauge* series (e.g. power in W): value holds until the next sample;
 *    integrate() treats samples as a step function.
 *  - *counter* deltas (e.g. energy per tick in Wh): sumRange() adds the
 *    raw values whose timestamps fall inside the window.
 *
 * The range queries take an optional *cursor* (ts::Cursor): an in/out
 * search hint updated to the window-start index that was found. A
 * hint that is not the answer (wrong index, or an epoch from before an
 * eviction batch) falls back to the frame's window search, which is
 * itself cached per frame: the many series read over one window share
 * one binary search. Neither hint ever changes a result, so cursored
 * and cursorless calls are bit-identical.
 */
class TimeSeries
{
  public:
    TimeSeries() = default;
    TimeSeries(const TimeSeries &) = delete;
    TimeSeries &operator=(const TimeSeries &) = delete;
    ~TimeSeries();

    /**
     * Set the retention policy. Must be called before the first
     * append (the ecovisor configures series at intern time); calling
     * it on a series that already holds samples is fatal.
     */
    void setRetention(const RetentionConfig &config);

    /** The retention policy in effect (default: unbounded). */
    const RetentionConfig &retention() const { return retention_; }

    /** True when a retention bound is configured. */
    bool bounded() const { return retention_.bounded(); }

    /**
     * Append a sample; timestamps must be non-decreasing. The sample
     * goes to the series' private frame (created on first use; a
     * series whose shared column has ended moves its rows there
     * first). Inline, with the O(1) seal test: the frame push, the
     * hour-bucket update and the test are the whole per-append cost
     * until a seal is due. Touches only this series, so appends to
     * disjoint series may run on different threads.
     */
    void
    append(TimeS time_s, double value)
    {
        if (!owns_)
            makePrivate();
        Frame &f = *frame_;
        if (f.rows() > first_ && time_s < f.lastTime())
            outOfOrder();
        f.append(time_s, value);
        if (!retention_.bounded())
            return;
        hour_.record(time_s, value);
        if (sealDue(time_s))
            maybeSeal();
    }

    /** Number of raw samples in the hot tier. */
    std::size_t
    size() const
    {
        return static_cast<std::size_t>(end() - first_);
    }

    /** True when the series has never been written. */
    bool empty() const { return totalAppends() == 0; }

    /**
     * Raw sample slots the series' private frame holds allocated
     * (spare chunk included); 0 for a shared column, whose rows are
     * the database's.
     */
    std::size_t
    capacity() const
    {
        return owns_ ? frame_->slotCapacity() : 0;
    }

    /** Hot-tier sample i, oldest retained first (i < size()). */
    Sample
    at(std::size_t i) const
    {
        const std::int64_t row = first_ + static_cast<std::int64_t>(i);
        return Sample{frame_->time(row), frame_->value(col_, row)};
    }

    /** Most recent value; 0 when empty. */
    double last() const;

    /**
     * Step-function value at a point in time.
     *
     * @return the value of the latest sample with time <= t; 0 when t
     *         precedes all retained knowledge. Exact over the
     *         cold+hot coverage, bucket-resolution in the rollup
     *         region.
     */
    double valueAt(TimeS t) const;

    /**
     * Integrate the step function over [t1, t2).
     *
     * For a power series in watts with times in seconds the result is
     * watt-seconds / 3600 = watt-hours. Exact (bit-identical to the
     * unbounded series) while t1 falls inside the cold+hot coverage;
     * the portion of the window older than that is answered from
     * rollups, and history evicted past the hour tier contributes 0
     * (the boundary clamp — an evicted first sample's value is never
     * extrapolated backwards).
     *
     * @param cursor optional search hint (see class comment)
     * @return integral in (value-unit x hours)
     */
    double integrateWh(TimeS t1, TimeS t2,
                       Cursor *cursor = nullptr) const;

    /** Sum raw sample values with t1 <= time < t2 (counter deltas).
     *  Same tier semantics as integrateWh: exact over cold+hot,
     *  bucket sums in the rollup region, 0 beyond. */
    double sumRange(TimeS t1, TimeS t2, Cursor *cursor = nullptr) const;

    /** Average step-function value over [t1, t2). */
    double averageOver(TimeS t1, TimeS t2) const;

    /** Maximum raw sample value with t1 <= time < t2; 0 when none. */
    double maxRange(TimeS t1, TimeS t2) const;

    /** Index of first hot-tier sample with time >= t. */
    std::size_t lowerBound(TimeS t) const;

    /**
     * Hinted lower bound: identical result to lowerBound(t), but the
     * binary search is confined to the side of `hint` the answer lies
     * on. A hint at (or just before) the answer — the monotone-query
     * steady state — degenerates to O(1) comparisons. Any hint value
     * is safe, including one past size().
     */
    std::size_t lowerBound(TimeS t, std::size_t hint) const;

    // ------------------------------------------------------------------
    // Retention diagnostics (tests, benches, memory budgeting).
    // ------------------------------------------------------------------

    /**
     * Hot-tier epoch for cursor checks: the number of samples evicted
     * from the hot tier so far. 0 until the first seal, and it changes
     * on every seal, since each one evicts at least one sample.
     */
    std::uint64_t
    epoch() const
    {
        return static_cast<std::uint64_t>(first_ - born_);
    }

    /** Samples ever appended (across all tiers and evictions). */
    std::uint64_t
    totalAppends() const
    {
        return static_cast<std::uint64_t>(end() - born_);
    }

    /** Sealed cold blocks currently retained. */
    std::size_t coldBlockCount() const { return cold_.size(); }

    /** Raw samples held inside the cold blocks. */
    std::size_t coldSampleCount() const;

    /** The minute-rollup tier (retired history only). */
    const RollupTier &minuteTier() const { return minute_; }

    /**
     * The hour-rollup tier, as if every appended sample had been
     * recorded: a copy with the shared column's not-yet-folded rows
     * folded in (diagnostics; queries read the tier in place).
     */
    RollupTier hourTier() const;

    /**
     * Start of the exact (cold+hot) coverage: queries from here on
     * are bit-identical to the unbounded series. Meaningful only
     * after hasRetired(); before that, exact coverage is the whole
     * history.
     */
    TimeS exactSince() const { return hasRetired() ? exact_since_s_ : 0; }

    /** True once at least one cold block has been retired. */
    bool hasRetired() const { return exact_since_s_ != kNotRetired; }

    /** Heap bytes across all tiers, each counted by capacity; a
     *  shared column's rows are the database's (TsDatabase::
     *  memoryBytes), a private frame's are the series'. */
    std::size_t memoryBytes() const;

  private:
    friend class TsDatabase;

    /** end_ of a series whose rows still grow with its frame. */
    static constexpr std::int64_t kOpen =
        std::numeric_limits<std::int64_t>::max();

    /** One past the newest row. */
    std::int64_t
    end() const
    {
        return !frame_ ? 0 : end_ == kOpen ? frame_->rows() : end_;
    }

    /** First row in [first_, end()) with time >= t (end() if none). */
    std::int64_t hotLowerBound(TimeS t) const;

    /** hotLowerBound(t), trying the relative index `hint` first. */
    std::int64_t hintedLowerBound(TimeS t, std::size_t hint) const;

    /** hotLowerBound(t) for a query: the frame's cached window start
     *  first, then the cursor (when its epoch matches), then a
     *  search. */
    std::int64_t queryLowerBound(TimeS t, const Cursor *cursor) const;

    /** Move the rows into a fresh private frame (see append()). */
    void makePrivate();

    /** Fold rows [folded_, row) into the hour tier. */
    void foldHour(std::int64_t row);

    /**
     * True when a whole batch has aged out of the bound, decided in
     * O(1): the count bound keeps from n - max_samples, and since
     * times are monotone, lowerBound(newest - window_s) >= seal_batch
     * iff sample seal_batch-1 is older than the window. `newest` is
     * the newest sample's time, which the caller already holds.
     */
    bool
    sealDue(TimeS newest) const
    {
        const std::int64_t n = end() - first_;
        const auto batch = static_cast<std::int64_t>(retention_.seal_batch);
        if (retention_.max_samples > 0 &&
            n >= static_cast<std::int64_t>(retention_.max_samples) + batch)
            return true;
        return retention_.window_s > 0 && n >= batch &&
               frame_->time(first_ + batch - 1) <
                   newest - retention_.window_s;
    }

    [[noreturn]] static void outOfOrder();
    void maybeSeal();
    void sealPrefix(std::size_t seal_n, TimeS cut);
    void retireCold();
    void dropRollups();

    /** The legacy flat-scan queries over the hot tier only. */
    double hotIntegrateWh(TimeS t1, TimeS t2, Cursor *cursor) const;
    double hotSumRange(TimeS t1, TimeS t2, Cursor *cursor) const;

    /** Exact queries over [a, b) walking cold blocks then the hot
     *  tier (a >= exactSince()); op-for-op identical to the same
     *  scan over the flat unbounded history. The integral is in
     *  value-seconds. */
    double exactIntegrateVs(TimeS a, TimeS b) const;
    double exactSumRange(TimeS a, TimeS b) const;
    double exactMaxRange(TimeS a, TimeS b, bool *seen,
                         double best) const;

    /** Rollup-tier composition over [a, b) (entirely before the
     *  exact coverage): hour tier up to the minute tier's coverage,
     *  minute tier from there. */
    double rollupIntegrateVs(TimeS a, TimeS b) const;
    double rollupSumRange(TimeS a, TimeS b) const;
    double rollupMaxRange(TimeS a, TimeS b, bool *seen) const;
    /** Start of the minute tier's coverage (the rollup seam). */
    TimeS minuteStart() const;

    /** The frame holding the hot tier: the database's shared frame,
     *  or the series' own private one (owns_). */
    Frame *frame_ = nullptr;
    /** Hot rows are [first_, end()); end_ is kOpen while the rows
     *  grow with the frame (a private frame, or a live shared column)
     *  and fixed once a shared column ends. */
    std::int64_t first_ = 0;
    std::int64_t end_ = kOpen;
    /** Row of the first sample ever written, in frame_'s numbering
     *  (negative after a move to a private frame): epoch() and
     *  totalAppends() count from it. */
    std::int64_t born_ = 0;
    /** A shared column's hour tier holds its rows below this one. */
    std::int64_t folded_ = 0;
    std::int32_t col_ = 0;
    bool owns_ = false;
    RetentionConfig retention_;

    /** Sealed cold spans, oldest first; spans tile [start,end) cuts. */
    TierQueue<SealedBlock> cold_;

    /** Exact-coverage boundary: the newest retired block's end cut.
     *  The step value carried across it is minute_.carry(), since the
     *  minute tier has folded every retired sample. */
    static constexpr TimeS kNotRetired = std::numeric_limits<TimeS>::min();
    TimeS exact_since_s_ = kNotRetired;

    RollupTier minute_{60};
    RollupTier hour_{3600};
    /** Running maximum of the minute tier's drop cuts: a block folded
     *  on retirement must not keep buckets an earlier cut dropped. */
    TimeS minute_cut_s_ = std::numeric_limits<TimeS>::min();
};

} // namespace ecov::ts

#endif // ECOV_TELEMETRY_TIME_SERIES_H
