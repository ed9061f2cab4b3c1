#include "telemetry/retention.h"

#include <algorithm>

namespace ecov::ts {

namespace {

/** First bucket with start >= t. */
inline const RollupBucket *
bucketLowerBound(const TierQueue<RollupBucket> &buckets, TimeS t)
{
    return std::lower_bound(
        buckets.begin(), buckets.end(), t,
        [](const RollupBucket &b, TimeS v) { return b.start_s < v; });
}

} // namespace

void
RollupTier::openBucket(TimeS t, double v)
{
    closeOpenBucket();
    // The span from the new bucket's start boundary to this sample
    // integrates the carried-in step value (0 before the first sample
    // ever, matching the raw-series convention).
    const TimeS bstart = alignDown(t, width_s_);
    buckets_.push_back(RollupBucket{
        bstart, v, v, v, carry_ * static_cast<double>(t - bstart)});
    open_ = true;
}

void
RollupTier::closeOpenBucket()
{
    if (!open_)
        return;
    // The step integral is missing the tail from the bucket's last
    // sample to its end boundary.
    RollupBucket &open = buckets_.back();
    open.integral_vs +=
        carry_ * static_cast<double>(open.start_s + width_s_ - frontier_);
    open_ = false;
}

void
RollupTier::dropBefore(TimeS cut)
{
    while (!buckets_.empty() && buckets_.front().start_s < cut)
        buckets_.pop_front();
    if (buckets_.empty())
        open_ = false;
}

double
RollupTier::integrateVs(TimeS a, TimeS b) const
{
    if (b <= a || buckets_.empty())
        return 0.0;
    auto it = bucketLowerBound(buckets_, a);
    // Step value in effect at `a`: the closing value of the bucket
    // before the range (which, for unaligned `a`, is the bucket
    // containing it — a bucket-resolution approximation). Before the
    // oldest retained bucket the value reads as 0: dropped history is
    // clamped, never extrapolated.
    double carry = it != buckets_.begin() ? std::prev(it)->last : 0.0;
    double acc = 0.0;
    TimeS t = a;
    for (; it != buckets_.end() && it->start_s < b; ++it) {
        acc += carry * static_cast<double>(it->start_s - t);
        acc += it->integral_vs;
        t = it->start_s + width_s_;
        carry = it->last;
    }
    acc += carry * static_cast<double>(b - t);
    return acc;
}

double
RollupTier::sumRange(TimeS a, TimeS b) const
{
    double acc = 0.0;
    for (auto it = bucketLowerBound(buckets_, a);
         it != buckets_.end() && it->start_s < b; ++it)
        acc += it->sum;
    return acc;
}

double
RollupTier::maxRange(TimeS a, TimeS b, bool *seen) const
{
    double best = 0.0;
    for (auto it = bucketLowerBound(buckets_, a);
         it != buckets_.end() && it->start_s < b; ++it) {
        if (!*seen || it->max > best) {
            best = it->max;
            *seen = true;
        }
    }
    return best;
}

double
RollupTier::valueAt(TimeS t, bool *known) const
{
    // Last bucket with start <= t.
    auto it = bucketLowerBound(buckets_, t + 1);
    if (it == buckets_.begin()) {
        *known = false;
        return 0.0;
    }
    *known = true;
    return std::prev(it)->last;
}

} // namespace ecov::ts
