#include "telemetry/block.h"

#include <bit>
#include <cstring>
#include <utility>

#include "util/logging.h"

namespace ecov::ts {

namespace {

/** LEB128 append. */
inline void
putVarint(std::vector<std::uint8_t> *out, std::uint64_t v)
{
    while (v >= 0x80) {
        out->push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out->push_back(static_cast<std::uint8_t>(v));
}

/** LEB128 read; fatal on truncation. */
inline std::uint64_t
getVarint(const std::vector<std::uint8_t> &in, std::size_t *pos)
{
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
        if (*pos >= in.size() || shift > 63)
            fatal("BlockCursor: corrupt cold block payload");
        const std::uint8_t byte = in[(*pos)++];
        v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return v;
        shift += 7;
    }
}

/** Zigzag: small magnitudes (either sign) -> small varints. */
inline std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

inline std::uint64_t
bitsOf(double d)
{
    std::uint64_t u;
    std::memcpy(&u, &d, sizeof u);
    return u;
}

inline double
doubleOf(std::uint64_t u)
{
    double d;
    std::memcpy(&d, &u, sizeof d);
    return d;
}

/**
 * Append a value XOR. Slowly-moving doubles share their low mantissa
 * bits (often exactly-representable steps leave them all zero), so
 * the XOR carries long runs of trailing zeros that a plain varint
 * (low-bits-first) would spell out. Shift them off and record the
 * shift: `0` for a repeated value, else varint(tz + 1) followed by
 * varint(x >> tz).
 */
inline void
putXor(std::vector<std::uint8_t> *out, std::uint64_t x)
{
    if (x == 0) {
        out->push_back(0);
        return;
    }
    const int tz = std::countr_zero(x);
    putVarint(out, static_cast<std::uint64_t>(tz) + 1);
    putVarint(out, x >> tz);
}

/** Read a value XOR written by putXor; fatal on a shift > 63. */
inline std::uint64_t
getXor(const std::vector<std::uint8_t> &in, std::size_t *pos)
{
    const std::uint64_t t = getVarint(in, pos);
    if (t == 0)
        return 0;
    if (t > 64)
        fatal("BlockCursor: corrupt cold block payload");
    return getVarint(in, pos) << (t - 1);
}

} // namespace

BlockEncoder::BlockEncoder(TimeS start_cut_s, TimeS end_cut_s)
{
    b_.start_cut_s = start_cut_s;
    b_.end_cut_s = end_cut_s;
    // Room for a typical batch (a few bytes per sample), so the
    // payload is allocated about twice: here and at finish().
    b_.payload.reserve(256);
}

void
BlockEncoder::add(TimeS time_s, double value)
{
    const std::uint64_t bits = bitsOf(value);
    if (b_.count == 0) {
        b_.first_time_s = time_s;
        b_.first_value = value;
    } else {
        const TimeS delta = time_s - b_.last_time_s;
        putVarint(&b_.payload, zigzag(delta - prev_delta_));
        prev_delta_ = delta;
        putXor(&b_.payload, bits ^ prev_bits_);
    }
    prev_bits_ = bits;
    b_.last_time_s = time_s;
    b_.last_value = value;
    ++b_.count;
}

SealedBlock
BlockEncoder::finish()
{
    if (b_.count == 0)
        fatal("sealBlock: empty span");
    b_.payload.shrink_to_fit();
    return std::move(b_);
}

SealedBlock
sealBlock(const Sample *samples, std::size_t count, TimeS start_cut_s,
          TimeS end_cut_s)
{
    BlockEncoder enc(start_cut_s, end_cut_s);
    for (std::size_t i = 0; i < count; ++i)
        enc.add(samples[i].time_s, samples[i].value);
    return enc.finish();
}

bool
BlockCursor::next(Sample *out)
{
    if (emitted_ >= block_->count)
        return false;
    if (emitted_ == 0) {
        time_ = block_->first_time_s;
        delta_ = 0;
        value_bits_ = bitsOf(block_->first_value);
    } else {
        delta_ += unzigzag(getVarint(block_->payload, &pos_));
        time_ += delta_;
        value_bits_ ^= getXor(block_->payload, &pos_);
    }
    ++emitted_;
    out->time_s = time_;
    out->value = doubleOf(value_bits_);
    return true;
}

} // namespace ecov::ts
