/**
 * @file
 * Columnar sample storage: the hot tier of every telemetry series.
 *
 * A Frame stores rows in fixed chunks of kChunkRows. Each chunk holds
 * one time column shared by all of its columns and one contiguous
 * `double` column per series, column-major in blocks of kBlockCols
 * columns (FrameChunk::column), so writing one row touches one time
 * slot plus one slot per column, a query walks one column as runs of
 * contiguous doubles, and a column joining a chunk never moves the
 * columns already in it.
 *
 * A frame has one of two kinds of owner:
 *  - the TsDatabase, whose shared frame records one row per tick with
 *    a column per series (TsDatabase::beginRow/put/endRow);
 *  - a single TimeSeries, whose private one-column frame carries its
 *    own timestamps (TimeSeries::append).
 *
 * Rows are numbered globally from 0 and never renumbered; retiring the
 * oldest chunk (popFront) only raises baseRow(). A retired chunk is
 * kept as the spare for the next one, so a frame at steady size
 * allocates nothing.
 */

#ifndef ECOV_TELEMETRY_FRAME_H
#define ECOV_TELEMETRY_FRAME_H

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "telemetry/retention.h"
#include "util/units.h"

namespace ecov::ts {

/** Rows per chunk; also the default RetentionConfig::seal_batch. */
inline constexpr std::int64_t kChunkRows = 64;

/** Columns per value block of a shared frame's chunk. */
inline constexpr std::int64_t kBlockCols = 64;

/** One chunk of kChunkRows rows. */
struct FrameChunk
{
    /** Times of the rows written so far (one entry per row). */
    std::vector<TimeS> time;
    /**
     * Column-major values in blocks of kBlockCols columns: block 0 is
     * `values`, block b > 0 is shared->blocks[b - 1], and column col's
     * rows start at column(col). Each block is allocated for all of
     * its columns at once (widen), so a join never copies a column. A
     * private frame's single column is `values`, filled by push_back.
     */
    std::vector<double> values;
    /** The parts only a shared frame's chunk has (null otherwise, so a
     *  private series' chunk stays small). */
    struct Shared
    {
        /** Value blocks 1, 2, ... */
        std::vector<std::vector<double>> blocks;
        /** Every series with a column in this chunk. A column ended
         *  mid-chunk can pass to a series that joins later in it:
         *  their rows are disjoint. */
        std::vector<std::int32_t> owners;
    };
    std::unique_ptr<Shared> shared;
    /** Live series still holding hot rows here (shared frame); the
     *  chunk can be retired once this reaches 0. */
    std::int32_t holders = 0;

    /** First row of column `col`. */
    const double *
    column(std::int32_t col) const
    {
        const auto b = static_cast<std::size_t>(col / kBlockCols);
        return (b == 0 ? values.data() : shared->blocks[b - 1].data()) +
               (col % kBlockCols) * kChunkRows;
    }

    /** Make room for columns [0, cols) of a shared frame. */
    void widen(std::size_t cols);
};

/**
 * Chunked columnar rows (see the file comment). Not copyable: series
 * hold pointers to it.
 */
class Frame
{
  public:
    Frame() = default;
    Frame(const Frame &) = delete;
    Frame &operator=(const Frame &) = delete;

    /** Rows committed so far (the next row's number). */
    std::int64_t rows() const { return rows_; }

    /** First row still stored (the oldest retained chunk's first). */
    std::int64_t baseRow() const { return base_chunk_ * kChunkRows; }

    /** One past the last row the newest chunk can hold. */
    std::int64_t
    chunkEnd() const
    {
        return (base_chunk_ + static_cast<std::int64_t>(chunks_.size())) *
               kChunkRows;
    }

    /** Chunks currently retained. */
    std::size_t chunkCount() const { return chunks_.size(); }

    /** The chunk holding `row` (baseRow() <= row, row's chunk made). */
    const FrameChunk &
    chunkOf(std::int64_t row) const
    {
        return chunks_[static_cast<std::size_t>(row / kChunkRows -
                                                base_chunk_)];
    }

    FrameChunk &
    chunkOf(std::int64_t row)
    {
        return chunks_[static_cast<std::size_t>(row / kChunkRows -
                                                base_chunk_)];
    }

    /** Time of a stored row. */
    TimeS
    time(std::int64_t row) const
    {
        return chunkOf(row).time[static_cast<std::size_t>(row % kChunkRows)];
    }

    /** Value of a stored row in column `col`. */
    double
    value(std::int32_t col, std::int64_t row) const
    {
        return chunkOf(row).column(col)[row % kChunkRows];
    }

    /**
     * First committed row with time >= t, searched over [baseRow(),
     * rows()) (rows() when none). One search per distinct t: the
     * answer is cached and the cache is checked against the time
     * column before it is used, so the many series read over one
     * window (EcoLib's per-tick reads) share a single binary search.
     * The check makes any cached value safe, so readers on several
     * threads only ever cost each other a search.
     */
    std::int64_t lowerBound(TimeS t) const;

    /**
     * The cached lowerBound(t) answer, or the row after it (a window
     * that advanced by one row), when the cache holds either.
     */
    bool
    cachedLowerBound(TimeS t, std::int64_t *row) const
    {
        *row = search_hint_.load(std::memory_order_relaxed);
        if (isLowerBound(t, *row))
            return true;
        if (!isLowerBound(t, ++*row))
            return false;
        search_hint_.store(*row, std::memory_order_relaxed);
        return true;
    }

    /**
     * Walk rows [a, b) of column `col` as contiguous runs, at most one
     * per chunk: f(const TimeS *time, const double *value, n) returns
     * false to stop early.
     */
    template <typename F>
    void
    forRuns(std::int32_t col, std::int64_t a, std::int64_t b, F &&f) const
    {
        while (a < b) {
            const FrameChunk &c = chunkOf(a);
            const std::int64_t off = a % kChunkRows;
            const std::int64_t n = std::min(b - a, kChunkRows - off);
            if (!f(c.time.data() + off, c.column(col) + off,
                   static_cast<std::size_t>(n)))
                return;
            a += n;
        }
    }

    /**
     * Append one row to a one-column (private) frame; the caller
     * checks time order.
     */
    void
    append(TimeS t, double v)
    {
        if (rows_ == chunkEnd())
            pushChunk().values.clear();
        FrameChunk &c = chunks_.back();
        c.time.push_back(t);
        c.values.push_back(v);
        last_time_ = t;
        ++rows_;
    }

    /** Time of the newest row append() added. */
    TimeS lastTime() const { return last_time_; }

    /**
     * Open a new chunk at the back (on the spare's storage when there
     * is one), with time and owners emptied. Values keep the spare's
     * contents: the shared frame resizes them over stale doubles that
     * no column reads before writing, and append() clears them.
     */
    FrameChunk &pushChunk();

    /** The newest chunk. */
    FrameChunk &back() { return chunks_.back(); }

    /** Commit the row in progress (shared frames). */
    void commitRow() { ++rows_; }

    /** The oldest retained chunk. */
    FrameChunk &front() { return chunks_[0]; }

    /** Retire the oldest chunk; it becomes the spare unless one is
     *  already kept. */
    void popFront();

    /** Rows the allocated chunks (spares included) can hold. */
    std::size_t
    slotCapacity() const
    {
        return (chunks_.size() + (spare_.time.capacity() > 0 ? 1 : 0)) *
               static_cast<std::size_t>(kChunkRows);
    }

    /** Heap bytes: the chunk table and every column, by capacity
     *  (the Frame object itself is its owner's to count). */
    std::size_t memoryBytes() const;

  private:
    /** True when `hint` is the lowerBound(t) answer. */
    bool isLowerBound(TimeS t, std::int64_t hint) const;

    TierQueue<FrameChunk> chunks_;
    /** The last retired chunk's storage, reused by the next
     *  pushChunk(): a frame retires about one chunk per chunk it
     *  opens, so one spare keeps the steady state allocation-free. */
    FrameChunk spare_;
    /** Global chunk number of chunks_.front(). */
    std::int64_t base_chunk_ = 0;
    std::int64_t rows_ = 0;
    TimeS last_time_ = 0;
    /** Last lowerBound answer (see lowerBound). */
    mutable std::atomic<std::int64_t> search_hint_{0};
};

} // namespace ecov::ts

#endif // ECOV_TELEMETRY_FRAME_H
