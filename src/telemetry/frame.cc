#include "telemetry/frame.h"

#include <algorithm>

namespace ecov::ts {

void
FrameChunk::widen(std::size_t cols)
{
    constexpr auto kBlock = static_cast<std::size_t>(kBlockCols * kChunkRows);
    std::size_t need = cols * static_cast<std::size_t>(kChunkRows);
    auto fit = [&](std::vector<double> &v) {
        const std::size_t n = std::min(need, kBlock);
        v.reserve(kBlock);
        if (v.size() < n)
            v.resize(n);
        need -= n;
    };
    fit(values);
    if (!shared)
        shared = std::make_unique<Shared>();
    for (std::size_t b = 0; need > 0; ++b) {
        if (b == shared->blocks.size())
            shared->blocks.emplace_back();
        fit(shared->blocks[b]);
    }
}

bool
Frame::isLowerBound(TimeS t, std::int64_t hint) const
{
    return hint >= baseRow() && hint <= rows_ &&
           (hint == baseRow() || time(hint - 1) < t) &&
           (hint == rows_ || time(hint) >= t);
}

std::int64_t
Frame::lowerBound(TimeS t) const
{
    std::int64_t hint;
    if (cachedLowerBound(t, &hint))
        return hint;
    // The first committed row with time >= t lies in the last chunk
    // whose first time is < t, or is the next chunk's first row.
    const std::int64_t committed =
        (rows_ + kChunkRows - 1) / kChunkRows - base_chunk_;
    std::int64_t lo = 0, hi = committed;
    while (lo < hi) {
        const std::int64_t mid = lo + (hi - lo) / 2;
        if (chunks_[static_cast<std::size_t>(mid)].time.front() < t)
            lo = mid + 1;
        else
            hi = mid;
    }
    std::int64_t row;
    if (lo == 0) {
        row = baseRow();
    } else {
        const std::int64_t c = lo - 1;
        const FrameChunk &chunk = chunks_[static_cast<std::size_t>(c)];
        const std::int64_t first = (base_chunk_ + c) * kChunkRows;
        const std::int64_t n = std::min(kChunkRows, rows_ - first);
        const auto it = std::lower_bound(chunk.time.begin(),
                                         chunk.time.begin() + n, t);
        row = first + (it - chunk.time.begin());
    }
    search_hint_.store(row, std::memory_order_relaxed);
    return row;
}

FrameChunk &
Frame::pushChunk()
{
    if (chunks_.empty())
        base_chunk_ = rows_ / kChunkRows;
    chunks_.push_back(std::move(spare_));
    spare_ = FrameChunk{};
    FrameChunk &c = chunks_.back();
    c.time.clear();
    if (c.shared)
        c.shared->owners.clear();
    c.holders = 0;
    return c;
}

void
Frame::popFront()
{
    FrameChunk c = chunks_.pop_front();
    ++base_chunk_;
    if (spare_.time.capacity() == 0)
        spare_ = std::move(c);
}

std::size_t
Frame::memoryBytes() const
{
    std::size_t bytes = chunks_.capacity() * sizeof(FrameChunk);
    auto columnBytes = [](const FrameChunk &c) {
        std::size_t b = c.time.capacity() * sizeof(TimeS) +
                         c.values.capacity() * sizeof(double);
        if (const FrameChunk::Shared *sh = c.shared.get()) {
            b += sizeof(*sh) +
                 sh->blocks.capacity() * sizeof(sh->blocks[0]) +
                 sh->owners.capacity() * sizeof(std::int32_t);
            for (const std::vector<double> &blk : sh->blocks)
                b += blk.capacity() * sizeof(double);
        }
        return b;
    };
    for (const FrameChunk &c : chunks_)
        bytes += columnBytes(c);
    return bytes + columnBytes(spare_);
}

} // namespace ecov::ts
