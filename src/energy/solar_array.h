/**
 * @file
 * Solar array model and irradiance trace generator.
 *
 * Substitute for the Chroma 62020H-150S solar array emulator the
 * prototype uses: the SAE itself replays solar radiation traces, so a
 * trace-driven software source exercises the same code path. The
 * generator produces a clear-sky diurnal bell with autocorrelated cloud
 * attenuation, matching the shape of Figures 8(a) and 10(a).
 */

#ifndef ECOV_ENERGY_SOLAR_ARRAY_H
#define ECOV_ENERGY_SOLAR_ARRAY_H

#include <cstdint>
#include <vector>

#include "util/step_lookup.h"
#include "util/units.h"

namespace ecov::energy {

/**
 * Trace-driven solar power source.
 *
 * Piecewise-constant output; queries past the trace end wrap modulo
 * the trace period so multi-day runs can reuse daily profiles. A scale
 * factor supports the Figure 10(c)/11 sweeps that scale solar output
 * by a percentage.
 */
class SolarArray
{
  public:
    /** One trace point. */
    struct Point
    {
        TimeS time_s;
        double power_w;
    };

    /**
     * @param points samples with strictly increasing times, values >= 0
     * @param period_s wrap period; must exceed the last sample time
     */
    explicit SolarArray(std::vector<Point> points, TimeS period_s);

    /** Instantaneous (tick-average) power output at time t, in watts. */
    double powerAt(TimeS t) const;

    /** Multiplier applied to trace output (default 1.0). */
    double scale() const { return scale_; }

    /** Set the output multiplier (>= 0). */
    void setScale(double scale);

    /** Peak power of the (scaled) trace, in watts. */
    double peakPowerW() const;

    /** Underlying trace points (unscaled). */
    const std::vector<Point> &points() const { return points_; }

  private:
    std::vector<Point> points_;
    TimeS period_s_;
    double scale_ = 1.0;
    StepLookup lookup_;
};

/** Parameters for the synthetic irradiance generator. */
struct SolarTraceConfig
{
    double peak_w = 400.0;      ///< clear-sky peak output
    double sunrise_hour = 6.0;  ///< local sunrise
    double sunset_hour = 18.0;  ///< local sunset
    double cloudiness = 0.2;    ///< 0 = clear sky, 1 = heavily clouded
    int days = 1;               ///< trace length in days
    TimeS sample_interval_s = 60;
};

/**
 * Generate a diurnal solar trace with autocorrelated cloud noise.
 *
 * @param config shape parameters
 * @param seed RNG seed (cloud process)
 */
SolarArray makeSolarTrace(const SolarTraceConfig &config,
                          std::uint64_t seed);

} // namespace ecov::energy

#endif // ECOV_ENERGY_SOLAR_ARRAY_H
