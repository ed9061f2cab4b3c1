/**
 * @file
 * Hinted lookup into a piecewise-constant trace.
 *
 * The solar, carbon-intensity and request-rate traces are step
 * functions: the value at time t is that of the last point at or
 * before t (the first point's before it), with t first wrapped into
 * the trace period. Each tick asks every trace about the same time
 * many times and then about the next tick, so the lookup remembers the
 * index it last returned and tries it, then the next one (wrapping to
 * the first point), before falling back to a binary search.
 *
 * The hint is a relaxed atomic that is only ever read as a guess: a
 * guessed index is used only after checking it against the trace's own
 * times, so any hint value — stale, or written by another thread — gives
 * the same answer as the plain search, bit for bit, at any thread count.
 */

#ifndef ECOV_UTIL_STEP_LOOKUP_H
#define ECOV_UTIL_STEP_LOOKUP_H

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <vector>

#include "util/units.h"

namespace ecov {

/**
 * The search hint of one trace. Point types need a `TimeS time_s`
 * member with strictly increasing times.
 */
class StepLookup
{
  public:
    StepLookup() = default;
    // Copies carry the hint along; any value is safe to start from.
    StepLookup(const StepLookup &o) noexcept : hint_(o.load()) {}
    StepLookup &
    operator=(const StepLookup &o) noexcept
    {
        hint_.store(o.load(), std::memory_order_relaxed);
        return *this;
    }

    /**
     * Index of the point in effect at time t: t is wrapped into
     * [0, period_s) when period_s > 0, then the last point with
     * time_s <= t is found (index 0 when t precedes every point).
     * `points` must be non-empty.
     */
    template <typename Point>
    std::size_t
    find(const std::vector<Point> &points, TimeS t, TimeS period_s) const
    {
        if (period_s > 0) {
            t %= period_s;
            if (t < 0)
                t += period_s;
        }
        const std::size_t n = points.size();
        auto holds = [&](std::size_t i) {
            return (i == 0 || points[i].time_s <= t) &&
                   (i + 1 == n || t < points[i + 1].time_s);
        };
        std::size_t i = load();
        if (i < n && holds(i))
            return i;
        i = i + 1 < n ? i + 1 : 0;
        if (!holds(i)) {
            auto it = std::upper_bound(points.begin(), points.end(), t,
                                       [](TimeS v, const Point &p) {
                                           return v < p.time_s;
                                       });
            i = it == points.begin()
                    ? 0
                    : static_cast<std::size_t>(it - points.begin()) - 1;
        }
        hint_.store(i, std::memory_order_relaxed);
        return i;
    }

  private:
    std::size_t load() const { return hint_.load(std::memory_order_relaxed); }

    mutable std::atomic<std::size_t> hint_{0};
};

} // namespace ecov

#endif // ECOV_UTIL_STEP_LOOKUP_H
