/**
 * @file
 * Request-rate trace generator for the web application case studies.
 *
 * Substitute for the 48-hour real-world Wikipedia workload trace the
 * paper replays [67]: a diurnal sinusoid with configurable peak hour,
 * burst spikes and noise. Section 5.2 needs two different workload
 * patterns whose peaks are *not* aligned with the carbon-intensity
 * signal — including a period where both carbon and load are high —
 * which the default configurations below arrange.
 */

#ifndef ECOV_WORKLOADS_REQUEST_TRACE_H
#define ECOV_WORKLOADS_REQUEST_TRACE_H

#include <cstdint>
#include <vector>

#include "util/step_lookup.h"
#include "util/units.h"

namespace ecov::wl {

/** Parameters for the diurnal request-rate generator. */
struct RequestTraceConfig
{
    double mean_rps = 100.0;     ///< average request rate
    double diurnal_amp = 60.0;   ///< day/night swing amplitude
    double peak_hour = 14.0;     ///< hour of daily peak
    double noise_stddev = 8.0;   ///< Gaussian per-sample noise
    double spike_prob = 0.01;    ///< per-sample chance of a burst
    double spike_mult = 1.8;     ///< burst multiplier
    int days = 2;                ///< trace length (paper: 48 h)
    TimeS sample_interval_s = 60;
    /** Linear growth of the mean over the trace (fraction of mean). */
    double ramp_fraction = 0.0;
};

/**
 * Piecewise-constant request-rate trace (wraps past its end).
 */
class RequestTrace
{
  public:
    /** One trace point. */
    struct Point
    {
        TimeS time_s;
        double rps;
    };

    /** Build from explicit points (strictly increasing times). */
    RequestTrace(std::vector<Point> points, TimeS period_s);

    /** Request rate (requests/second) at time t. */
    double rateAt(TimeS t) const;

    /** Peak rate over the whole trace. */
    double peakRps() const;

    /** Trace points. */
    const std::vector<Point> &points() const { return points_; }

  private:
    std::vector<Point> points_;
    TimeS period_s_;
    StepLookup lookup_;
};

/** Generate a trace from a configuration. */
RequestTrace makeRequestTrace(const RequestTraceConfig &config,
                              std::uint64_t seed);

/** Web app 1's workload (§5.2): afternoon peak, late-trace ramp. */
RequestTraceConfig webApp1Workload();

/** Web app 2's workload (§5.2): evening peak, higher variance. */
RequestTraceConfig webApp2Workload();

} // namespace ecov::wl

#endif // ECOV_WORKLOADS_REQUEST_TRACE_H
