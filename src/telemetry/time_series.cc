#include "telemetry/time_series.h"

#include <algorithm>

#include "util/logging.h"

namespace ecov::ts {

namespace {

/** Seal cuts are minute-aligned so tiers tile on bucket seams. */
constexpr TimeS kCutAlignS = 60;

} // namespace

static_assert(sizeof(TimeSeries) <= 256,
              "two series per 512-byte slab node (TsDatabase)");

TimeSeries::~TimeSeries()
{
    if (owns_)
        delete frame_;
}

void
TimeSeries::setRetention(const RetentionConfig &config)
{
    if (!empty())
        fatal("TimeSeries::setRetention: series already holds samples "
              "(retention must be configured before the first append)");
    retention_ = config;
    if (retention_.seal_batch == 0)
        retention_.seal_batch = 1;
    // Tiers must nest: cold inside minute inside hour coverage,
    // otherwise queries would hit a gap between exact and rolled-up
    // history.
    if (retention_.cold_keep < 1.0)
        retention_.cold_keep = 1.0;
    if (retention_.minute_keep < retention_.cold_keep)
        retention_.minute_keep = retention_.cold_keep;
    if (retention_.hour_keep < retention_.minute_keep)
        retention_.hour_keep = retention_.minute_keep;
}

void
TimeSeries::outOfOrder()
{
    fatal("TimeSeries::append: timestamps must be non-decreasing");
}

void
TimeSeries::makePrivate()
{
    auto *own = new Frame;
    if (frame_) {
        // An ended shared column: its hour tier catches up first,
        // then its rows move, renumbered from 0.
        foldHour(end_);
        std::int64_t left = end_ - first_;
        frame_->forRuns(col_, first_, end_, [&](const TimeS *t,
                                                const double *v,
                                                std::size_t n) {
            for (std::size_t i = 0; i < n; ++i, --left) {
                if (own->rows() % kChunkRows == 0) {
                    // Size each chunk to the rows it will hold.
                    const auto rows = static_cast<std::size_t>(
                        std::min(kChunkRows, left));
                    FrameChunk &c = own->pushChunk();
                    c.time.reserve(rows);
                    c.values.reserve(rows);
                }
                own->append(t[i], v[i]);
            }
            return true;
        });
        born_ -= first_;
    }
    frame_ = own;
    owns_ = true;
    col_ = 0;
    first_ = 0;
    end_ = kOpen;
}

void
TimeSeries::foldHour(std::int64_t row)
{
    if (!retention_.bounded() || folded_ >= row)
        return;
    frame_->forRuns(col_, folded_, row, [&](const TimeS *t, const double *v,
                                            std::size_t n) {
        hour_.recordRun(t, v, n);
        return true;
    });
    folded_ = row;
}

RollupTier
TimeSeries::hourTier() const
{
    RollupTier h = hour_;
    if (!owns_ && frame_ && retention_.bounded())
        frame_->forRuns(col_, folded_, end(), [&](const TimeS *t,
                                                  const double *v,
                                                  std::size_t n) {
            h.recordRun(t, v, n);
            return true;
        });
    return h;
}

std::size_t
TimeSeries::coldSampleCount() const
{
    std::size_t n = 0;
    for (const SealedBlock &blk : cold_)
        n += blk.count;
    return n;
}

void
TimeSeries::maybeSeal()
{
    // Runs once sealDue() saw the first index the bound wants to keep
    // (keep_from below) reach seal_batch. keep_from: the tighter of
    // the two bounds. A pure function of the appended data and the
    // config — no wall clock, no allocator state — so eviction is
    // deterministic and thread-count independent.
    const std::size_t n = size();
    const TimeS newest = frame_->time(end() - 1);
    std::size_t keep_from = 0;
    if (retention_.max_samples > 0 && n > retention_.max_samples)
        keep_from = n - retention_.max_samples;
    if (retention_.window_s > 0)
        keep_from = std::max(
            keep_from, lowerBound(newest - retention_.window_s));
    // Cut on a minute boundary at (or before) the first keeper, so
    // block seams land on rollup-bucket seams.
    const TimeS cut = alignDown(
        frame_->time(first_ + static_cast<std::int64_t>(keep_from)),
        kCutAlignS);
    const std::size_t seal_n = lowerBound(cut);
    if (seal_n == 0)
        return;
    sealPrefix(seal_n, cut);
}

void
TimeSeries::sealPrefix(std::size_t seal_n, TimeS cut)
{
    // Blocks tile: this block starts where the previous one ended
    // (or at the exact-coverage boundary / the aligned first sample
    // for the very first seal).
    const TimeS start_cut =
        !cold_.empty() ? cold_.back().end_cut_s
        : hasRetired()
            ? exact_since_s_
            : alignDown(frame_->time(first_), kCutAlignS);
    const std::int64_t seal_end = first_ + static_cast<std::int64_t>(seal_n);
    BlockEncoder enc(start_cut, cut);
    frame_->forRuns(col_, first_, seal_end, [&](const TimeS *t,
                                                const double *v,
                                                std::size_t n) {
        for (std::size_t i = 0; i < n; ++i)
            enc.add(t[i], v[i]);
        return true;
    });
    cold_.push_back(enc.finish());
    // The hot base moves, and with it epoch(): outstanding index
    // cursors are stale now.
    first_ = seal_end;
    // A private frame retires the chunks now wholly sealed, keeping
    // one as its next chunk; the database retires shared chunks.
    while (owns_ && frame_->baseRow() + kChunkRows <= first_)
        frame_->popFront();
    retireCold();
    dropRollups();
}

void
TimeSeries::retireCold()
{
    const TimeS newest = frame_->time(end() - 1);
    std::size_t cold_samples = coldSampleCount();
    while (!cold_.empty()) {
        const SealedBlock &front = cold_.front();
        bool retire;
        if (retention_.window_s > 0) {
            const TimeS keep_behind = static_cast<TimeS>(
                retention_.cold_keep *
                static_cast<double>(retention_.window_s));
            retire = front.end_cut_s <= newest - keep_behind;
        } else {
            retire = cold_samples >
                     static_cast<std::size_t>(
                         retention_.cold_keep *
                         static_cast<double>(retention_.max_samples));
        }
        if (!retire)
            return;
        // Rollups only answer windows ending at or before
        // exactSince(), so the minute tier needs only retired samples.
        // The bucket ending at (or before) the block's end cut is
        // closed now: every later sample is >= the cut, so its tail is
        // already known.
        BlockCursor bc(front);
        Sample smp;
        while (bc.next(&smp))
            minute_.record(smp.time_s, smp.value);
        minute_.closeOpenBucket();
        // The block's end cut becomes the exact-coverage boundary;
        // its closing value, now the minute tier's carry, is the step
        // value for queries starting exactly at that boundary.
        exact_since_s_ = front.end_cut_s;
        cold_samples -= front.count;
        cold_.pop_front();
    }
}

void
TimeSeries::dropRollups()
{
    const TimeS newest = frame_->time(end() - 1);
    // Effective window for the keep multipliers: the configured
    // window, or the observed hot span under a pure count bound.
    TimeS w_eff = retention_.window_s;
    if (w_eff <= 0)
        w_eff = std::max<TimeS>(
            newest - frame_->time(first_), kCutAlignS);
    // Hour-aligned drops for both tiers keep the hour->minute seam
    // clean: a surviving minute front never splits an hour bucket
    // that was itself dropped. Under a count bound w_eff can grow, so
    // the minute cut is held at its running maximum: buckets folded
    // later must not outlive a cut applied before they existed.
    minute_cut_s_ = std::max(
        minute_cut_s_,
        alignDown(newest - static_cast<TimeS>(
                               retention_.minute_keep *
                               static_cast<double>(w_eff)),
                  3600));
    minute_.dropBefore(minute_cut_s_);
    hour_.dropBefore(alignDown(
        newest - static_cast<TimeS>(retention_.hour_keep *
                                    static_cast<double>(w_eff)),
        3600));
}

double
TimeSeries::last() const
{
    // The hot tier never empties once written (sealing keeps >= 1).
    return size() == 0 ? 0.0 : frame_->value(col_, end() - 1);
}

std::int64_t
TimeSeries::hotLowerBound(TimeS t) const
{
    if (size() == 0)
        return first_;
    // The frame's time column is monotone, so the answer within the
    // hot rows is the frame-wide answer clamped to them.
    return std::clamp(frame_->lowerBound(t), first_, end());
}

std::int64_t
TimeSeries::hintedLowerBound(TimeS t, std::size_t hint) const
{
    // The hint, or the row after it (a window that advanced by one
    // sample), when either is the answer.
    const std::int64_t e = end();
    const std::int64_t h =
        first_ + static_cast<std::int64_t>(std::min(hint, size()));
    for (const std::int64_t r : {h, std::min(h + 1, e)})
        if ((r == first_ || frame_->time(r - 1) < t) &&
            (r == e || frame_->time(r) >= t))
            return r;
    return hotLowerBound(t);
}

std::int64_t
TimeSeries::queryLowerBound(TimeS t, const Cursor *cursor) const
{
    std::int64_t row;
    if (size() > 0 && frame_->cachedLowerBound(t, &row))
        return std::clamp(row, first_, end());
    if (cursor && cursor->epoch == epoch())
        return hintedLowerBound(t, cursor->index);
    return hotLowerBound(t);
}

std::size_t
TimeSeries::lowerBound(TimeS t) const
{
    return static_cast<std::size_t>(hotLowerBound(t) - first_);
}

std::size_t
TimeSeries::lowerBound(TimeS t, std::size_t hint) const
{
    return static_cast<std::size_t>(hintedLowerBound(t, hint) - first_);
}

double
TimeSeries::valueAt(TimeS t) const
{
    if (size() == 0)
        return 0.0;
    if ((cold_.empty() && !hasRetired()) || t >= frame_->time(first_)) {
        const std::int64_t row = hotLowerBound(t);
        if (row < end() && frame_->time(row) == t)
            return frame_->value(col_, row);
        if (row == first_)
            return cold_.empty() ? minute_.carry()
                                 : cold_.back().last_value;
        return frame_->value(col_, row - 1);
    }
    if (t >= exact_since_s_) {
        // Exact region: the step value at t from the cold blocks,
        // matching the flat series' semantics (first sample with
        // time >= t wins an exact hit; else the previous sample).
        double prev = minute_.carry();
        for (const SealedBlock &blk : cold_) {
            if (blk.last_time_s < t) {
                prev = blk.last_value;
                continue;
            }
            if (blk.first_time_s > t)
                break;
            BlockCursor bc(blk);
            Sample s;
            while (bc.next(&s)) {
                if (s.time_s < t) {
                    prev = s.value;
                    continue;
                }
                if (s.time_s == t)
                    return s.value;
                break;
            }
            break;
        }
        return prev;
    }
    // Rollup region: bucket-resolution step value; 0 before all
    // retained knowledge (clamp, never extrapolate).
    bool known = false;
    double v = minute_.valueAt(t, &known);
    if (known)
        return v;
    // The hour tier's answer is the closing value of the last bucket
    // starting at or before t: the last sample before the end of t's
    // bucket. Rows not folded yet are newer than every folded one, so
    // when one of them lies before that end, the newest such row is
    // the answer.
    if (!owns_ && folded_ < end()) {
        const TimeS bucket_end = alignDown(t, hour_.width()) + hour_.width();
        const std::int64_t row =
            std::clamp(frame_->lowerBound(bucket_end), folded_, end());
        if (row > folded_)
            return frame_->value(col_, row - 1);
    }
    v = hour_.valueAt(t, &known);
    return known ? v : 0.0;
}

double
TimeSeries::hotIntegrateWh(TimeS t1, TimeS t2, Cursor *cursor) const
{
    double acc = 0.0;
    TimeS cursor_t = t1;
    // Walk sample boundaries inside (t1, t2).
    const std::int64_t row = queryLowerBound(t1, cursor);
    if (cursor) {
        cursor->index = static_cast<std::size_t>(row - first_);
        cursor->epoch = epoch();
    }
    // One walk from the row before the window: that row's value is
    // the one in effect at t1 (0 before the first sample), and a row
    // exactly at t1 replaces it — read on the way, not looked up.
    double current = 0.0;
    int phase = row > first_ ? 0 : 1; // 0: carry row, 1: t1 row, 2: walk
    frame_->forRuns(col_, row > first_ ? row - 1 : row, end(),
                    [&](const TimeS *t, const double *v, std::size_t n) {
        std::size_t i = 0;
        if (phase == 0) {
            current = v[0];
            i = 1;
            phase = 1;
        }
        if (phase == 1 && i < n) {
            if (t[i] == t1)
                current = v[i++];
            phase = 2;
        }
        for (; i < n; ++i) {
            if (t[i] >= t2)
                return false;
            acc += current * static_cast<double>(t[i] - cursor_t);
            cursor_t = t[i];
            current = v[i];
        }
        return true;
    });
    acc += current * static_cast<double>(t2 - cursor_t);
    return acc / kSecondsPerHour;
}

double
TimeSeries::integrateWh(TimeS t1, TimeS t2, Cursor *cursor) const
{
    if (t2 <= t1 || size() == 0)
        return 0.0;
    // Window entirely inside the hot tier (or nothing ever evicted):
    // the legacy flat scan, bit-identical to the unbounded series.
    if ((cold_.empty() && !hasRetired()) || t1 >= frame_->time(first_))
        return hotIntegrateWh(t1, t2, cursor);
    double acc_vs = 0.0;
    TimeS a = t1;
    if (t1 < exact_since_s_) {
        const TimeS rb = std::min(t2, exact_since_s_);
        acc_vs += rollupIntegrateVs(t1, rb);
        a = rb;
    }
    if (a < t2)
        acc_vs += exactIntegrateVs(a, t2);
    if (cursor) {
        cursor->index = lowerBound(t1);
        cursor->epoch = epoch();
    }
    return acc_vs / kSecondsPerHour;
}

double
TimeSeries::exactIntegrateVs(TimeS a, TimeS b) const
{
    // Replicates the flat-history walk op for op: `current` tracks
    // the step value, `acc` accumulates current * dt at each sample
    // boundary in (a, b), so results over the cold+hot coverage are
    // bit-identical to the unbounded series.
    double current = minute_.carry();
    double acc = 0.0;
    TimeS cursor_t = a;
    bool at_start = true;
    bool stopped = false;

    auto consume = [&](TimeS time_s, double value) {
        if (time_s < a) {
            current = value;
            return;
        }
        if (time_s >= b) {
            stopped = true;
            return;
        }
        if (at_start && time_s == a) {
            // The flat walk's exact-hit branch: a sample exactly at
            // the window start replaces the carried-in value.
            current = value;
            at_start = false;
            return;
        }
        at_start = false;
        acc += current * static_cast<double>(time_s - cursor_t);
        cursor_t = time_s;
        current = value;
    };

    for (const SealedBlock &blk : cold_) {
        if (stopped)
            break;
        if (blk.last_time_s < a) {
            current = blk.last_value;
            continue;
        }
        BlockCursor bc(blk);
        Sample s;
        while (!stopped && bc.next(&s))
            consume(s.time_s, s.value);
    }
    frame_->forRuns(col_, first_, end(), [&](const TimeS *t, const double *v,
                                             std::size_t n) {
        for (std::size_t i = 0; i < n && !stopped; ++i)
            consume(t[i], v[i]);
        return !stopped;
    });
    acc += current * static_cast<double>(b - cursor_t);
    return acc;
}

double
TimeSeries::hotSumRange(TimeS t1, TimeS t2, Cursor *cursor) const
{
    const std::int64_t start = queryLowerBound(t1, cursor);
    if (cursor) {
        cursor->index = static_cast<std::size_t>(start - first_);
        cursor->epoch = epoch();
    }
    double acc = 0.0;
    if (start == end())
        return acc;
    frame_->forRuns(col_, start, end(), [&](const TimeS *t, const double *v,
                                            std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            if (t[i] >= t2)
                return false;
            acc += v[i];
        }
        return true;
    });
    return acc;
}

double
TimeSeries::sumRange(TimeS t1, TimeS t2, Cursor *cursor) const
{
    if (size() == 0 || (cold_.empty() && !hasRetired()) ||
        t1 >= frame_->time(first_))
        return hotSumRange(t1, t2, cursor);
    double acc = 0.0;
    if (t1 < exact_since_s_)
        acc += rollupSumRange(t1, std::min(t2, exact_since_s_));
    const TimeS a = std::max(t1, exact_since_s_);
    if (a < t2)
        acc += exactSumRange(a, t2);
    if (cursor) {
        cursor->index = lowerBound(t1);
        cursor->epoch = epoch();
    }
    return acc;
}

double
TimeSeries::exactSumRange(TimeS a, TimeS b) const
{
    double acc = 0.0;
    for (const SealedBlock &blk : cold_) {
        if (blk.last_time_s < a)
            continue;
        if (blk.first_time_s >= b)
            return acc;
        BlockCursor bc(blk);
        Sample s;
        while (bc.next(&s)) {
            if (s.time_s < a)
                continue;
            if (s.time_s >= b)
                return acc;
            acc += s.value;
        }
    }
    frame_->forRuns(col_, first_, end(), [&](const TimeS *t, const double *v,
                                             std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            if (t[i] < a)
                continue;
            if (t[i] >= b)
                return false;
            acc += v[i];
        }
        return true;
    });
    return acc;
}

double
TimeSeries::averageOver(TimeS t1, TimeS t2) const
{
    if (t2 <= t1)
        return 0.0;
    double wh = integrateWh(t1, t2);
    return wh * kSecondsPerHour / static_cast<double>(t2 - t1);
}

double
TimeSeries::maxRange(TimeS t1, TimeS t2) const
{
    bool seen = false;
    double best = 0.0;
    if (size() == 0)
        return 0.0;
    if ((cold_.empty() && !hasRetired()) || t1 >= frame_->time(first_)) {
        frame_->forRuns(col_, hotLowerBound(t1), end(),
                        [&](const TimeS *t, const double *v,
                            std::size_t n) {
                            for (std::size_t i = 0; i < n; ++i) {
                                if (t[i] >= t2)
                                    return false;
                                if (!seen || v[i] > best) {
                                    best = v[i];
                                    seen = true;
                                }
                            }
                            return true;
                        });
        return seen ? best : 0.0;
    }
    if (t1 < exact_since_s_)
        best = rollupMaxRange(t1, std::min(t2, exact_since_s_),
                              &seen);
    const TimeS a = std::max(t1, exact_since_s_);
    if (a < t2)
        best = exactMaxRange(a, t2, &seen, best);
    return seen ? best : 0.0;
}

double
TimeSeries::exactMaxRange(TimeS a, TimeS b, bool *seen,
                          double best) const
{
    auto consider = [&](double v) {
        if (!*seen || v > best) {
            best = v;
            *seen = true;
        }
    };
    for (const SealedBlock &blk : cold_) {
        if (blk.last_time_s < a)
            continue;
        if (blk.first_time_s >= b)
            return best;
        BlockCursor bc(blk);
        Sample s;
        while (bc.next(&s)) {
            if (s.time_s < a)
                continue;
            if (s.time_s >= b)
                return best;
            consider(s.value);
        }
    }
    frame_->forRuns(col_, first_, end(), [&](const TimeS *t, const double *v,
                                             std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            if (t[i] < a)
                continue;
            if (t[i] >= b)
                return false;
            consider(v[i]);
        }
        return true;
    });
    return best;
}

TimeS
TimeSeries::minuteStart() const
{
    if (!minute_.empty())
        return minute_.frontStart();
    // Nothing retired survives the drop cut. The seam is the first
    // bucket the minute tier will hold: that of the first sample at
    // or after the cut, in the cold blocks, else the hot ring's first.
    for (const SealedBlock &blk : cold_) {
        if (blk.last_time_s < minute_cut_s_)
            continue;
        BlockCursor bc(blk);
        Sample smp;
        while (bc.next(&smp))
            if (smp.time_s >= minute_cut_s_)
                return alignDown(smp.time_s, minute_.width());
    }
    return alignDown(frame_->time(first_), minute_.width());
}

double
TimeSeries::rollupIntegrateVs(TimeS a, TimeS b) const
{
    // Compose tiers: the minute tier answers from its oldest bucket
    // on, the hour tier answers the span before that. The hand-off is
    // hour-aligned (dropRollups guarantees clean seams); a seam slice
    // that neither tier retains reads as 0 — dropped history is
    // clamped, never extrapolated.
    const TimeS mstart = minuteStart();
    if (a >= mstart)
        return minute_.integrateVs(a, b);
    const TimeS hb = std::min(b, alignDown(mstart, 3600));
    double acc = hb > a ? hour_.integrateVs(a, hb) : 0.0;
    if (b > mstart)
        acc += minute_.integrateVs(mstart, b);
    return acc;
}

double
TimeSeries::rollupSumRange(TimeS a, TimeS b) const
{
    const TimeS mstart = minuteStart();
    if (a >= mstart)
        return minute_.sumRange(a, b);
    double acc =
        hour_.sumRange(a, std::min(b, alignDown(mstart, 3600)));
    if (b > mstart)
        acc += minute_.sumRange(mstart, b);
    return acc;
}

double
TimeSeries::rollupMaxRange(TimeS a, TimeS b, bool *seen) const
{
    const TimeS mstart = minuteStart();
    if (a >= mstart)
        return minute_.maxRange(a, b, seen);
    double best =
        hour_.maxRange(a, std::min(b, alignDown(mstart, 3600)), seen);
    if (b > mstart) {
        bool mseen = false;
        const double m = minute_.maxRange(mstart, b, &mseen);
        if (mseen && (!*seen || m > best)) {
            best = m;
            *seen = true;
        }
    }
    return best;
}

std::size_t
TimeSeries::memoryBytes() const
{
    std::size_t bytes = sizeof(TimeSeries) +
                        (owns_ ? sizeof(Frame) + frame_->memoryBytes() : 0) +
                        cold_.capacity() * sizeof(SealedBlock);
    for (const SealedBlock &blk : cold_)
        bytes += blk.payload.capacity();
    bytes += minute_.memoryBytes() + hour_.memoryBytes();
    return bytes;
}

} // namespace ecov::ts
