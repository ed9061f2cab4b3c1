#include "telemetry/ts_database.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "util/logging.h"

namespace ecov::ts {

namespace {

/** Wake-up sentinel: a column whose seal test can never pass. */
constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

} // namespace

const TimeSeries TsDatabase::empty_{};

TsDatabase::TsDatabase() : frame_(std::make_unique<Frame>()) {}

SeriesId
TsDatabase::intern(std::string_view measurement, std::string_view tag)
{
    const KeyView probe{measurement, tag};
    auto it = index_.lower_bound(probe);
    if (it != index_.end() && !KeyLess{}(probe, it->first))
        return it->second;
    const auto id = static_cast<SeriesId>(slab_.size());
    slab_.emplace_back();
    if (default_retention_.bounded())
        slab_.back().setRetention(default_retention_);
    col_of_.push_back(-1);
    index_.emplace_hint(it, Key{std::string(measurement), std::string(tag)},
                        id);
    return id;
}

void
TsDatabase::setDefaultRetention(const RetentionConfig &config)
{
    default_retention_ = config;
}

std::size_t
TsDatabase::memoryBytes() const
{
    std::size_t bytes = sizeof(Frame) + frame_->memoryBytes() +
                        col_of_.capacity() * sizeof(std::int32_t) +
                        col_owner_.capacity() * sizeof(SeriesId) +
                        stamp_.capacity() * sizeof(std::int64_t) +
                        wake_row_.capacity() * sizeof(std::int64_t) +
                        wake_t_.capacity() * sizeof(TimeS);
    for (const auto &s : slab_)
        bytes += s.memoryBytes();
    return bytes;
}

SeriesId
TsDatabase::findSeries(std::string_view measurement,
                       std::string_view tag) const
{
    auto it = index_.find(KeyView{measurement, tag});
    return it == index_.end() ? kInvalidSeries : it->second;
}

void
TsDatabase::invalidId(const char *who)
{
    fatal(std::string(who) + ": invalid series id");
}

void
TsDatabase::noRow()
{
    fatal("TsDatabase::put: no row in progress (call beginRow first)");
}

const TimeSeries &
TsDatabase::series(SeriesId id) const
{
    checkId(id, "TsDatabase::series");
    return slab_[static_cast<std::size_t>(id)];
}

// ---------------------------------------------------------------------
// Row API.
// ---------------------------------------------------------------------

void
TsDatabase::join(SeriesId id)
{
    checkId(id, "TsDatabase::join");
    TimeSeries &s = slab_[static_cast<std::size_t>(id)];
    // A series with samples keeps its private frame (append path).
    if (col_of_[static_cast<std::size_t>(id)] >= 0 || !s.empty())
        return;
    std::int32_t col;
    if (!free_cols_.empty()) {
        col = free_cols_.back();
        free_cols_.pop_back();
    } else {
        col = static_cast<std::int32_t>(col_owner_.size());
        col_owner_.push_back(-1);
        stamp_.push_back(-1);
        wake_row_.push_back(kNever);
        wake_t_.push_back(kNever);
    }
    s.frame_ = frame_.get();
    s.owns_ = false;
    s.col_ = col;
    s.first_ = s.born_ = s.folded_ = frame_->rows();
    s.end_ = TimeSeries::kOpen;
    const auto c = static_cast<std::size_t>(col);
    col_owner_[c] = id;
    col_of_[static_cast<std::size_t>(id)] = col;
    stamp_[c] = -1;
    setWake(col, s);
    ++live_;
    // Join the open chunk now when it will hold the series' first
    // row; otherwise the next openChunk() carries the column in.
    if (row_ >= 0 || frame_->rows() % kChunkRows != 0) {
        FrameChunk &ch = frame_->back();
        ch.widen(c + 1);
        ch.shared->owners.push_back(id);
        ++ch.holders;
        pointRow(ch);
    }
}

void
TsDatabase::openChunk()
{
    // Hand the lowest free columns out first, so the chunk width
    // tracks the live count.
    std::sort(free_cols_.begin(), free_cols_.end(), std::greater<>());
    FrameChunk &ch = frame_->pushChunk();
    const std::size_t width = col_owner_.size();
    ch.time.reserve(kChunkRows);
    ch.widen(width);
    for (const SeriesId id : col_owner_)
        if (id >= 0)
            ch.shared->owners.push_back(id);
    ch.holders = live_;
}

void
TsDatabase::pointRow(FrameChunk &ch)
{
    const std::int64_t off = frame_->rows() % kChunkRows;
    auto &blocks = ch.shared->blocks;
    row_blocks_.resize(blocks.size() + 1);
    row_blocks_[0] = ch.values.data() + off;
    for (std::size_t b = 0; b < blocks.size(); ++b)
        row_blocks_[b + 1] = blocks[b].data() + off;
}

void
TsDatabase::beginRow(TimeS time_s)
{
    if (row_ >= 0)
        fatal("TsDatabase::beginRow: the previous row is still open");
    const std::int64_t r = frame_->rows();
    if (r > frame_->baseRow() && time_s < frame_->time(r - 1))
        fatal("TsDatabase::beginRow: row times must be non-decreasing");
    if (r % kChunkRows == 0)
        openChunk();
    FrameChunk &ch = frame_->back();
    ch.time.push_back(time_s);
    row_ = r;
    row_time_ = time_s;
    pointRow(ch);
}

void
TsDatabase::endRow()
{
    if (row_ < 0)
        fatal("TsDatabase::endRow: no row in progress");
    frame_->commitRow();
    const std::int64_t r = row_;
    const TimeS t = row_time_;
    const auto width = static_cast<std::int32_t>(col_owner_.size());
    for (std::int32_t c = 0; c < width; ++c) {
        const auto i = static_cast<std::size_t>(c);
        if (stamp_[i] != r) {
            if (col_owner_[i] >= 0)
                endColumn(c, r);
            continue;
        }
        if (r >= wake_row_[i] || t > wake_t_[i])
            wakeColumn(c);
    }
    retireChunks();
    row_ = -1;
}

void
TsDatabase::endColumn(std::int32_t col, std::int64_t end)
{
    const auto c = static_cast<std::size_t>(col);
    const SeriesId id = col_owner_[c];
    TimeSeries &s = slab_[static_cast<std::size_t>(id)];
    s.end_ = end;
    s.foldHour(end);
    // A live column is counted in every chunk from its first hot row's
    // through the newest.
    release(s.first_, frame_->chunkEnd());
    col_owner_[c] = -1;
    col_of_[static_cast<std::size_t>(id)] = -1;
    wake_row_[c] = kNever;
    wake_t_[c] = kNever;
    // The column is free at once: a series joining later in this
    // chunk writes only rows after this one's.
    free_cols_.push_back(col);
    --live_;
}

void
TsDatabase::detach(SeriesId id)
{
    endColumn(col_of_[static_cast<std::size_t>(id)], frame_->rows());
}

void
TsDatabase::setWake(std::int32_t col, const TimeSeries &s)
{
    const RetentionConfig &rc = s.retention_;
    std::int64_t wake_row = kNever;
    TimeS wake_t = kNever;
    if (rc.bounded()) {
        const auto batch = static_cast<std::int64_t>(rc.seal_batch);
        if (rc.max_samples > 0)
            wake_row = s.first_ +
                       static_cast<std::int64_t>(rc.max_samples) + batch -
                       1;
        if (rc.window_s > 0) {
            // The window test reads sample seal_batch-1, which the
            // row first_ + batch - 1 supplies.
            if (s.end() - s.first_ >= batch)
                wake_t = frame_->time(s.first_ + batch - 1) + rc.window_s;
            else
                wake_row = std::min(wake_row, s.first_ + batch - 1);
        }
    }
    wake_row_[static_cast<std::size_t>(col)] = wake_row;
    wake_t_[static_cast<std::size_t>(col)] = wake_t;
}

void
TsDatabase::wakeColumn(std::int32_t col)
{
    const SeriesId id = col_owner_[static_cast<std::size_t>(col)];
    TimeSeries &s = slab_[static_cast<std::size_t>(id)];
    if (s.sealDue(frame_->time(s.end() - 1))) {
        // Fold first: the seal drops rollup buckets, and an append
        // would have recorded every row before its seal ran.
        const std::int64_t first = s.first_;
        s.foldHour(s.end());
        s.maybeSeal();
        release(first, s.first_);
    }
    setWake(col, s);
}

void
TsDatabase::release(std::int64_t a, std::int64_t b)
{
    for (std::int64_t chunk = a / kChunkRows; chunk < b / kChunkRows;
         ++chunk)
        --frame_->chunkOf(chunk * kChunkRows).holders;
}

void
TsDatabase::retireChunks()
{
    // The open chunk stays; an older one goes once no live column
    // holds rows in it. An ended column that still keeps rows there
    // (its own bound stopped advancing when its writes did) moves
    // them to its private frame first.
    while (frame_->chunkCount() > 1 && frame_->front().holders == 0) {
        const FrameChunk &ch = frame_->front();
        const std::int64_t chunk_end = frame_->baseRow() + kChunkRows;
        for (const SeriesId id : ch.shared->owners) {
            TimeSeries &s = slab_[static_cast<std::size_t>(id)];
            if (!s.owns_ && s.frame_ == frame_.get() &&
                s.first_ < chunk_end && s.first_ < s.end())
                s.makePrivate();
        }
        frame_->popFront();
    }
}

// ---------------------------------------------------------------------
// String surface.
// ---------------------------------------------------------------------

void
TsDatabase::write(std::string_view measurement, std::string_view tag,
                  TimeS time_s, double value)
{
    append(intern(measurement, tag), time_s, value);
}

const TimeSeries &
TsDatabase::series(std::string_view measurement, std::string_view tag) const
{
    const SeriesId id = findSeries(measurement, tag);
    return id == kInvalidSeries ? empty_
                                : slab_[static_cast<std::size_t>(id)];
}

bool
TsDatabase::has(std::string_view measurement, std::string_view tag) const
{
    const SeriesId id = findSeries(measurement, tag);
    return id != kInvalidSeries &&
           !slab_[static_cast<std::size_t>(id)].empty();
}

std::vector<TsDatabase::Key>
TsDatabase::keys() const
{
    // index_ iterates sorted; skip interned-but-empty series so
    // pre-resolved ids stay invisible until written (compat contract).
    std::vector<Key> out;
    out.reserve(index_.size());
    for (const auto &kv : index_) {
        if (!slab_[static_cast<std::size_t>(kv.second)].empty())
            out.push_back(kv.first);
    }
    return out;
}

std::size_t
TsDatabase::seriesCount() const
{
    std::size_t n = 0;
    for (const auto &s : slab_) {
        if (!s.empty())
            ++n;
    }
    return n;
}

void
TsDatabase::clear()
{
    index_.clear();
    slab_.clear();
    frame_ = std::make_unique<Frame>();
    col_of_.clear();
    col_owner_.clear();
    stamp_.clear();
    wake_row_.clear();
    wake_t_.clear();
    free_cols_.clear();
    live_ = 0;
    row_ = -1;
    row_blocks_.clear();
}

} // namespace ecov::ts
