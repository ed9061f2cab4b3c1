/**
 * @file
 * Named time-series database (InfluxDB stand-in).
 *
 * Series are addressed by a (measurement, tag) pair, e.g.
 * ("container_power_w", "app1/c3") or ("grid_carbon", ""). The ecovisor
 * writes one sample per tick per series; library functions (Table 2)
 * query intervals.
 *
 * Storage layout (the telemetry hot path, see docs/PERF.md): series
 * live in a dense **slab** addressed by a SeriesId. The string pair is
 * *interned* to an id exactly once (intern()/findSeries()), with a
 * heterogeneous lookup that builds no key on a hit. Samples live in
 * columnar frames (frame.h):
 *
 *  - **Row path.** A series join()ed to the database is one column of
 *    its shared frame. Each tick is one row: beginRow(t) appends t to
 *    the shared time column once, put(id, v) stores v in the series'
 *    column (inline, one store plus a stamp), and endRow() ends the
 *    columns nobody wrote this row and runs the seals that are due.
 *    Every 64 rows a new chunk opens carrying the live columns over;
 *    chunks whose rows every series has sealed go on a free list.
 *  - **Append path.** append()/write() go to the series' private
 *    one-column frame with its own timestamps. The string-keyed
 *    write()/series() surface is a thin resolve-then-delegate shim.
 *
 * The slab is a deque: interning a new series never moves existing
 * ones, so `const TimeSeries &` references and SeriesIds stay valid
 * for the database's lifetime (until clear()).
 */

#ifndef ECOV_TELEMETRY_TS_DATABASE_H
#define ECOV_TELEMETRY_TS_DATABASE_H

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/frame.h"
#include "telemetry/time_series.h"

namespace ecov::ts {

/**
 * Dense index of an interned (measurement, tag) series. Stable from
 * intern() until clear(); never recycled while the database lives.
 */
using SeriesId = std::int32_t;

/** Sentinel for "no series". */
inline constexpr SeriesId kInvalidSeries = -1;

/**
 * In-memory multi-series store.
 *
 * Lookup creates series on demand (write path); the const query path
 * returns a shared empty series for unknown keys so callers need no
 * existence checks.
 *
 * Interned-but-never-written series are invisible to the query
 * surface: has()/keys()/seriesCount() report only series holding at
 * least one sample, so pre-resolving ids (the ecovisor interns every
 * app's series at registration) does not change what a reader
 * observes versus the write-creates-series compat path.
 */
class TsDatabase
{
  public:
    /** Composite series key. */
    struct Key
    {
        std::string measurement;
        std::string tag;

        bool
        operator<(const Key &o) const
        {
            if (measurement != o.measurement)
                return measurement < o.measurement;
            return tag < o.tag;
        }
    };

    TsDatabase();
    TsDatabase(const TsDatabase &) = delete;
    TsDatabase &operator=(const TsDatabase &) = delete;

    // ------------------------------------------------------------------
    // SeriesId surface (the hot path: resolve once, index thereafter).
    // ------------------------------------------------------------------

    /**
     * Intern (measurement, tag): the existing id, or a fresh slab
     * slot on first use (the only call that builds a Key). Do it at
     * setup time, not per tick. Fresh series inherit the database's
     * default retention policy.
     */
    SeriesId intern(std::string_view measurement, std::string_view tag);

    /**
     * Retention policy applied to every series interned from now on
     * (already-interned series keep theirs). The ecovisor sets this
     * from EcovisorOptions before interning any series, so the whole
     * database is uniformly bounded or uniformly unbounded.
     */
    void setDefaultRetention(const RetentionConfig &config);

    /** The policy fresh series inherit (default: unbounded). */
    const RetentionConfig &defaultRetention() const
    {
        return default_retention_;
    }

    /** Approximate live bytes: every series plus the shared frame. */
    std::size_t memoryBytes() const;

    /** Id of an already-interned pair; kInvalidSeries when unknown. */
    SeriesId findSeries(std::string_view measurement,
                        std::string_view tag = "") const;

    /**
     * Append a sample to an interned series' private frame: a bounds
     * check plus an inline TimeSeries::append. Safe on disjoint ids
     * from several threads while the series are not joined; on a
     * joined series it first ends the column (sequential only).
     * Fatal on an invalid id (e.g. one held across clear()).
     */
    void
    append(SeriesId id, TimeS time_s, double value)
    {
        checkId(id, "TsDatabase::append");
        if (col_of_[static_cast<std::size_t>(id)] >= 0)
            detach(id);
        slab_[static_cast<std::size_t>(id)].append(time_s, value);
    }

    // ------------------------------------------------------------------
    // Row API: one row of the shared frame per tick.
    // ------------------------------------------------------------------

    /**
     * Make a never-written series a column of the shared frame from
     * the current row (inside beginRow/endRow) or the next one.
     * Sequential. No-op on a live column, and on a series that holds
     * samples (it stays on its private frame).
     */
    void join(SeriesId id);

    /**
     * Begin the row for time t. Sequential; t must not precede the
     * previous row's time (checked once here for every column).
     */
    void beginRow(TimeS time_s);

    /**
     * Write id's value in the current row. Inline: one store into the
     * series' column plus a stamp. Safe from several threads on
     * disjoint ids, like append(). A series that is not a live
     * column (never joined, or its column ended) takes the sample at
     * the row's time on its private frame instead.
     */
    void
    put(SeriesId id, double value)
    {
        checkId(id, "TsDatabase::put");
        const std::int32_t col = col_of_[static_cast<std::size_t>(id)];
        if (col < 0) {
            if (row_ < 0)
                noRow();
            slab_[static_cast<std::size_t>(id)].append(row_time_, value);
            return;
        }
        const auto c = static_cast<std::size_t>(col);
        row_blocks_[c / kBlockCols][(c % kBlockCols) * kChunkRows] = value;
        stamp_[static_cast<std::size_t>(col)] = row_;
    }

    /**
     * Commit the row. Sequential. A column not written this row ends
     * there (its series keeps its rows and reads as ended, like a
     * destroyed container's); then every column whose seal is due
     * folds its rows into its hour tier and seals, and chunks no live
     * column holds any more are retired.
     */
    void endRow();

    /** Indexed series lookup (fatal on an invalid id). */
    const TimeSeries &series(SeriesId id) const;

    /** Interned series count, including never-written ones. */
    std::size_t internedCount() const { return slab_.size(); }

    // ------------------------------------------------------------------
    // String surface (compat shim: resolve, then delegate).
    // ------------------------------------------------------------------

    /** Append a sample to (measurement, tag), creating it if needed. */
    void write(std::string_view measurement, std::string_view tag,
               TimeS time_s, double value);

    /** Series lookup for queries; empty series when unknown. */
    const TimeSeries &series(std::string_view measurement,
                             std::string_view tag = "") const;

    /** True when the series exists and has samples. */
    bool has(std::string_view measurement,
             std::string_view tag = "") const;

    /** All (measurement, tag) keys with at least one sample, sorted. */
    std::vector<Key> keys() const;

    /** Number of series holding at least one sample. */
    std::size_t seriesCount() const;

    /** Drop everything. Outstanding SeriesIds become invalid. */
    void clear();

  private:
    /** Lookup key over borrowed strings (no allocation). */
    struct KeyView
    {
        std::string_view measurement;
        std::string_view tag;
    };

    /** Orders Key and KeyView alike, so lookups need no Key. */
    struct KeyLess
    {
        using is_transparent = void;

        static std::pair<std::string_view, std::string_view>
        view(const Key &k)
        {
            return {k.measurement, k.tag};
        }
        static std::pair<std::string_view, std::string_view>
        view(const KeyView &k)
        {
            return {k.measurement, k.tag};
        }
        template <typename A, typename B>
        bool
        operator()(const A &a, const B &b) const
        {
            return view(a) < view(b);
        }
    };

    void
    checkId(SeriesId id, const char *who) const
    {
        // col_of_ has one entry per interned series, and a vector's
        // size is cheaper to read than the deque's.
        if (id < 0 || static_cast<std::size_t>(id) >= col_of_.size())
            invalidId(who);
    }

    /** Fatal: `who` was handed an id this database never issued. */
    [[noreturn]] static void invalidId(const char *who);
    /** Fatal: put() outside beginRow/endRow. */
    [[noreturn]] static void noRow();

    /** A new chunk for row frame_->rows(), carrying the live columns. */
    void openChunk();

    /** Point row_blocks_ at the next row of the open chunk `ch`. */
    void pointRow(FrameChunk &ch);
    /** End column `col`'s series at row `end` (exclusive). */
    void endColumn(std::int32_t col, std::int64_t end);
    /** End a joined series' column so it can take private appends. */
    void detach(SeriesId id);
    /** Seal column `col` if due, then recompute its wake-up. */
    void wakeColumn(std::int32_t col);
    /** Precompute the row / time at which col's seal test can next
     *  pass, so endRow tests two integers instead of the series. */
    void setWake(std::int32_t col, const TimeSeries &s);
    /** One live series fewer holds rows in chunks [a/64, b/64). */
    void release(std::int64_t a, std::int64_t b);
    /** Retire front chunks that no live column holds. */
    void retireChunks();

    /** Sorted intern table: key -> slab index. */
    std::map<Key, SeriesId, KeyLess> index_;
    /**
     * The series slab. A deque so interning never relocates existing
     * series: ids, and `const TimeSeries &` references handed to
     * callers, stay stable — which is also what lets sharded
     * recording write disjoint ids while the structure itself is
     * untouched (interning and joining are sequential by contract,
     * see Ecovisor::recordTelemetry).
     */
    std::deque<TimeSeries> slab_;
    RetentionConfig default_retention_;

    /** The shared frame (heap-held so clear() can replace it). */
    std::unique_ptr<Frame> frame_;
    /** Per series: its column in the open chunk, -1 when none. */
    std::vector<std::int32_t> col_of_;
    /** Per column of the open chunk: its live series (-1: none), the
     *  last row put wrote, and the seal wake-up row and time. */
    std::vector<SeriesId> col_owner_;
    std::vector<std::int64_t> stamp_;
    std::vector<std::int64_t> wake_row_;
    std::vector<TimeS> wake_t_;
    /** Columns free to join (lowest last once a chunk opens). */
    std::vector<std::int32_t> free_cols_;
    /** Live columns (the next chunk's holders). */
    std::int32_t live_ = 0;
    /** The row in progress (-1 between rows), its time and, per value
     *  block of the open chunk, the address of the row's value in the
     *  block's first column. */
    std::int64_t row_ = -1;
    TimeS row_time_ = 0;
    std::vector<double *> row_blocks_;

    static const TimeSeries empty_;
};

} // namespace ecov::ts

#endif // ECOV_TELEMETRY_TS_DATABASE_H
