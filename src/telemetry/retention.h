/**
 * @file
 * Retention policy and rollup tiers for bounded-memory telemetry.
 *
 * A TimeSeries with a RetentionConfig keeps three storage tiers (see
 * docs/PERF.md "Retention tiers"):
 *
 *   hot ring   raw samples inside the retention bound (exact)
 *   cold       delta-compressed sealed blocks of evicted raw spans
 *              (still exact, decoded transparently by queries)
 *   rollups    minute and hour buckets (sum/max/last plus the step
 *              integral), answering queries older than the cold span
 *              at bucket resolution
 *
 * Everything here is a deterministic function of the appended samples
 * and the config — eviction decisions never depend on wall clock,
 * thread count or allocator state, so bounded series preserve the
 * repo-wide bit-identity contract.
 */

#ifndef ECOV_TELEMETRY_RETENTION_H
#define ECOV_TELEMETRY_RETENTION_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/units.h"

namespace ecov::ts {

/**
 * Per-series retention policy. Default-constructed = unbounded
 * (seed-compatible append-only behavior, zero overhead).
 *
 * The raw ring keeps the newest `max_samples` samples and/or the
 * samples within `window_s` of the newest timestamp (whichever bound
 * is tighter when both are set). Evicted spans are sealed into cold
 * blocks; cold blocks older than `cold_keep` windows are retired to
 * rollups only; minute/hour buckets are themselves dropped after
 * `minute_keep`/`hour_keep` windows. All three multipliers are in
 * units of the effective window (window_s, or the observed raw-ring
 * span under a pure count bound), so total memory is O(window).
 */
struct RetentionConfig
{
    /** Max raw samples retained; 0 = no count bound. */
    std::size_t max_samples = 0;
    /** Max raw sample age behind the newest sample; 0 = no bound. */
    TimeS window_s = 0;
    /**
     * Eviction batch: sealing runs only once at least this many
     * samples have aged out, so the ring may transiently hold up to
     * `seal_batch` extra samples (amortizes block encoding; one block
     * per batch).
     */
    std::size_t seal_batch = 64;
    /** Cold blocks retained, in effective windows behind newest. */
    double cold_keep = 4.0;
    /** Minute buckets retained, in effective windows behind newest. */
    double minute_keep = 8.0;
    /** Hour buckets retained, in effective windows behind newest. */
    double hour_keep = 64.0;

    /** True when any bound is set. */
    bool
    bounded() const
    {
        return max_samples > 0 || window_s > 0;
    }
};

/**
 * Epoch-checked search hint for the monotone interval queries.
 *
 * Replaces the bare index cursor: a bounded series bumps its epoch on
 * every eviction batch, and a cursor whose epoch mismatches is
 * ignored (self-reset) instead of indexing past the new ring base.
 * On an unbounded series the epoch stays 0 forever, so the cursor
 * behaves exactly like the old std::size_t hint. Cursors never change
 * results — only search cost (see ts::TimeSeries).
 */
struct Cursor
{
    std::size_t index = 0;   ///< hot-ring index hint
    std::uint64_t epoch = 0; ///< ring epoch the index was valid for
};

/** Floor-align t to a bucket width (correct for negative t). */
inline TimeS
alignDown(TimeS t, TimeS width)
{
    TimeS r = t % width;
    if (r < 0)
        r += width;
    return t - r;
}

/** Ceil-align t to a bucket width. */
inline TimeS
alignUp(TimeS t, TimeS width)
{
    const TimeS d = alignDown(t, width);
    return d == t ? t : d + width;
}

/**
 * FIFO storage for one retention tier: a vector plus a head index.
 * pop_front() advances the head; the dead prefix is compacted away
 * only when a push finds the vector full and at least an eighth of it
 * is dead. Each compaction then moves at most seven live elements per
 * pop since the last one, so pops stay amortized O(1), and the vector
 * only grows when it is 7/8 live. Unlike std::deque, an empty queue
 * allocates nothing until its first push.
 */
template <typename T>
class TierQueue
{
  public:
    bool empty() const { return head_ == items_.size(); }
    std::size_t size() const { return items_.size() - head_; }
    std::size_t capacity() const { return items_.capacity(); }

    const T *begin() const { return items_.data() + head_; }
    const T *end() const { return items_.data() + items_.size(); }
    const T &operator[](std::size_t i) const { return items_[head_ + i]; }
    T &operator[](std::size_t i) { return items_[head_ + i]; }
    const T &front() const { return items_[head_]; }
    const T &back() const { return items_.back(); }
    T &back() { return items_.back(); }

    void
    push_back(T v)
    {
        if (items_.size() == items_.capacity() && head_ > 0 &&
            8 * head_ >= items_.size())
            compact();
        items_.push_back(std::move(v));
    }

    /** Remove the oldest element and hand it back. */
    T
    pop_front()
    {
        T v = std::move(items_[head_++]);
        if (head_ == items_.size())
            clear();
        return v;
    }

  private:
    void
    clear()
    {
        items_.clear();
        head_ = 0;
    }

    void
    compact()
    {
        items_.erase(items_.begin(),
                     items_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
    }

    std::vector<T> items_;
    std::size_t head_ = 0;
};

/**
 * One downsampled bucket covering [start_s, start_s + width).
 * `integral_vs` is the exact step integral of the raw samples over
 * the bucket (value-seconds), accumulated incrementally on append;
 * `last` is the step value carried out of the bucket, which query
 * composition uses to integrate across sample-free gaps.
 */
struct RollupBucket
{
    TimeS start_s = 0;
    double sum = 0.0;
    double max = 0.0;
    double last = 0.0;
    double integral_vs = 0.0;
};

/**
 * One downsampling tier (minute or hour buckets), maintained
 * incrementally: record() folds each sample into the open (newest)
 * bucket, closing it — finalizing its step integral — when a sample
 * lands in a later bucket or on closeOpenBucket(). Sample-free
 * buckets are never materialized; the query side integrates gaps
 * from the previous bucket's `last`. Query methods assume the queried
 * range lies entirely behind the open bucket (the TimeSeries query
 * split guarantees this: rollups only answer ranges older than the
 * exact cold+hot coverage).
 */
class RollupTier
{
  public:
    explicit RollupTier(TimeS width_s)
        : width_s_(static_cast<std::int32_t>(width_s))
    {
    }

    TimeS width() const { return width_s_; }
    bool empty() const { return buckets_.empty(); }
    std::size_t bucketCount() const { return buckets_.size(); }

    /** Start of the oldest retained bucket (0 when empty). */
    TimeS
    frontStart() const
    {
        return buckets_.empty() ? 0 : buckets_.front().start_s;
    }

    /** Value of the last recorded sample (0 before the first). */
    double carry() const { return carry_; }

    /** Start of the newest retained bucket (0 when empty). */
    TimeS
    backStart() const
    {
        return buckets_.empty() ? 0 : buckets_.back().start_s;
    }

    /** Fold one appended sample in (timestamps non-decreasing). */
    void record(TimeS t, double v) { recordRun(&t, &v, 1); }

    /**
     * Fold n samples in, in order. Inline: at 60 s ticks the hour tier
     * updates its open bucket in place on 59 of 60 samples, with the
     * bucket's fields kept in registers while the samples stay in it.
     * Since t never precedes the newest bucket's start, "same bucket"
     * is a subtraction, not an alignDown().
     */
    void
    recordRun(const TimeS *t, const double *v, std::size_t n)
    {
        std::size_t i = 0;
        while (i < n) {
            if (buckets_.empty() ||
                t[i] - buckets_.back().start_s >= width_s_) {
                openBucket(t[i], v[i]);
                frontier_ = t[i];
                carry_ = v[i];
                ++i;
                continue;
            }
            RollupBucket &b = buckets_.back();
            const TimeS end = b.start_s + width_s_;
            double integral = b.integral_vs, sum = b.sum, max = b.max;
            double carry = carry_;
            TimeS frontier = frontier_;
            for (; i < n && t[i] < end; ++i) {
                integral += carry * static_cast<double>(t[i] - frontier);
                sum += v[i];
                if (v[i] > max)
                    max = v[i];
                frontier = t[i];
                carry = v[i];
            }
            b.integral_vs = integral;
            b.sum = sum;
            b.max = max;
            b.last = carry;
            frontier_ = frontier;
            carry_ = carry;
        }
    }

    /**
     * Close the open bucket now, adding the tail of its step integral
     * up to its end boundary. The caller promises the next recorded
     * sample lands in a later bucket (the tail is then exactly what
     * that sample would have added). No-op when nothing is open.
     */
    void closeOpenBucket();

    /** Drop buckets starting before `cut`. */
    void dropBefore(TimeS cut);

    /**
     * Step integral over [a, b) in value-seconds, composed from
     * closed buckets: full buckets contribute their exact integral,
     * sample-free gaps integrate the previous bucket's closing value,
     * and spans before the oldest retained bucket contribute 0 (the
     * boundary-clamp contract — evicted history is never
     * extrapolated). A partial leading bucket (unaligned `a` inside a
     * bucket) is approximated by that bucket's closing value.
     */
    double integrateVs(TimeS a, TimeS b) const;

    /** Sum of bucket sums for buckets with a <= start < b. */
    double sumRange(TimeS a, TimeS b) const;

    /**
     * Max over buckets with a <= start < b; sets *seen when at least
     * one bucket contributed.
     */
    double maxRange(TimeS a, TimeS b, bool *seen) const;

    /**
     * Bucket-resolution step value at t: the closing value of the
     * last bucket starting at or before t. Sets *known when such a
     * bucket exists.
     */
    double valueAt(TimeS t, bool *known) const;

    /** Heap bytes held by the tier (bucket storage capacity). */
    std::size_t
    memoryBytes() const
    {
        return buckets_.capacity() * sizeof(RollupBucket);
    }

  private:
    /** record()'s slow path: close the open bucket, open t's. */
    void openBucket(TimeS t, double v);

    TierQueue<RollupBucket> buckets_;
    /** Timestamp of the last recorded sample. */
    TimeS frontier_ = 0;
    /** Value of the last recorded sample (step carry). */
    double carry_ = 0.0;
    /** Bucket width; 32 bits so it shares a word with open_. */
    std::int32_t width_s_;
    /** The newest bucket still lacks its closing tail. */
    bool open_ = false;
};

} // namespace ecov::ts

#endif // ECOV_TELEMETRY_RETENTION_H
