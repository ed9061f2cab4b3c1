#include "carbon/carbon_signal.h"

#include <algorithm>

#include "util/logging.h"
#include "util/stats.h"

namespace ecov::carbon {

TraceCarbonSignal::TraceCarbonSignal(std::vector<Point> points,
                                     TimeS period_s)
    : points_(std::move(points)), period_s_(period_s)
{
    if (points_.empty())
        fatal("TraceCarbonSignal: empty trace");
    for (std::size_t i = 1; i < points_.size(); ++i) {
        if (points_[i].time_s <= points_[i - 1].time_s)
            fatal("TraceCarbonSignal: times must be strictly increasing");
    }
    if (period_s_ < 0)
        fatal("TraceCarbonSignal: negative period");
    if (period_s_ > 0 && points_.back().time_s >= period_s_)
        fatal("TraceCarbonSignal: trace extends past wrap period");
}

double
TraceCarbonSignal::intensityAt(TimeS t) const
{
    return points_[lookup_.find(points_, t, period_s_)]
        .intensity_g_per_kwh;
}

double
TraceCarbonSignal::intensityPercentile(double p) const
{
    std::vector<double> vals;
    vals.reserve(points_.size());
    for (const auto &pt : points_)
        vals.push_back(pt.intensity_g_per_kwh);
    return percentileOf(std::move(vals), p);
}

double
TraceCarbonSignal::intensityPercentile(double p, TimeS t1, TimeS t2) const
{
    std::vector<double> vals;
    for (const auto &pt : points_) {
        if (pt.time_s >= t1 && pt.time_s < t2)
            vals.push_back(pt.intensity_g_per_kwh);
    }
    if (vals.empty())
        return intensityPercentile(p);
    return percentileOf(std::move(vals), p);
}

} // namespace ecov::carbon
