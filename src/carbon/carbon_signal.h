/**
 * @file
 * Carbon-intensity information service.
 *
 * Stand-in for electricityMap/WattTime: provides location-specific grid
 * carbon-intensity (gCO2/kWh) sampled at a fine granularity (the paper
 * uses 5-minute samples). Signals are trace-driven so experiments are
 * repeatable.
 */

#ifndef ECOV_CARBON_CARBON_SIGNAL_H
#define ECOV_CARBON_CARBON_SIGNAL_H

#include <vector>

#include "util/step_lookup.h"
#include "util/units.h"

namespace ecov::carbon {

/**
 * Interface: grid carbon intensity as a function of time.
 */
class CarbonIntensitySignal
{
  public:
    virtual ~CarbonIntensitySignal() = default;

    /** Carbon intensity (gCO2/kWh) at simulated time t. */
    virtual double intensityAt(TimeS t) const = 0;
};

/**
 * Piecewise-constant trace signal.
 *
 * Samples are (start-time, intensity); the intensity holds until the
 * next sample. Queries before the first sample return the first value;
 * queries after the last return the last (traces may be shorter than a
 * run, matching how a live feed keeps reporting its latest estimate).
 * Traces can also be wrapped periodically to extend a daily profile.
 */
class TraceCarbonSignal : public CarbonIntensitySignal
{
  public:
    /** One trace point. */
    struct Point
    {
        TimeS time_s;
        double intensity_g_per_kwh;
    };

    /**
     * @param points trace samples with strictly increasing times
     * @param period_s when > 0, queries wrap modulo this period
     */
    explicit TraceCarbonSignal(std::vector<Point> points,
                               TimeS period_s = 0);

    double intensityAt(TimeS t) const override;

    /** Underlying trace points. */
    const std::vector<Point> &points() const { return points_; }

    /** Wrap period (0 = no wrapping). */
    TimeS period() const { return period_s_; }

    /**
     * Percentile of the trace's intensity values.
     *
     * Used by the WaitAWhile-style policies to pick a resume threshold
     * (the paper uses the 30th/33rd percentile over a 48 h window).
     *
     * @param p percentile in [0, 100]
     */
    double intensityPercentile(double p) const;

    /**
     * Percentile over samples whose (unwrapped) times fall in [t1, t2).
     */
    double intensityPercentile(double p, TimeS t1, TimeS t2) const;

  private:
    std::vector<Point> points_;
    TimeS period_s_;
    StepLookup lookup_;
};

} // namespace ecov::carbon

#endif // ECOV_CARBON_CARBON_SIGNAL_H
