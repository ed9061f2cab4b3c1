/**
 * @file
 * Higher-level library interface over the ecovisor's narrow API
 * (Section 3.2, Table 2).
 *
 * The ecovisor API is deliberately minimal; this library shows how the
 * richer functions the case studies use — interval energy/carbon
 * queries, carbon rate limiting, carbon budgeting, and asynchronous
 * notifications (solar change, carbon change, battery full/empty) —
 * are built entirely on top of it, the way exokernel library operating
 * systems encapsulate policy above a narrow kernel interface.
 *
 * One EcoLib instance serves one application. It registers its own
 * tick callback with the ecovisor; notifications and carbon-rate
 * enforcement run inside that callback.
 */

#ifndef ECOV_CORE_ECOLIB_H
#define ECOV_CORE_ECOLIB_H

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/ecovisor.h"

namespace ecov::core {

/**
 * Per-application convenience layer (Table 2).
 */
class EcoLib
{
  public:
    /** Parameterless notification callback. */
    using Notify = std::function<void()>;

    /** Value-change notification: (previous, current). */
    using ChangeNotify = std::function<void(double, double)>;

    /**
     * @param ecovisor borrowed; must outlive this object
     * @param app registered application name (resolved to an
     *        api::AppHandle once, here; every per-tick query after
     *        that is handle-addressed)
     */
    EcoLib(Ecovisor *ecovisor, std::string app);

    /** The resolved handle this instance queries through. */
    api::AppHandle handle() const { return handle_; }

    // ------------------------------------------------------------------
    // Table 2: monitoring queries.
    // ------------------------------------------------------------------

    /** Application power usage over the last tick, watts. */
    double getAppPower() const;

    /** Application energy usage over [t1, t2), watt-hours. */
    double getAppEnergyWh(TimeS t1, TimeS t2) const;

    /** Application carbon over [t1, t2), grams. */
    double getAppCarbonG(TimeS t1, TimeS t2) const;

    /** Cumulative application carbon, grams. */
    double getAppCarbonG() const;

    /** Container energy over [t1, t2), watt-hours. */
    double getContainerEnergyWh(cop::ContainerId id, TimeS t1,
                                TimeS t2) const;

    /** Container attributed carbon over [t1, t2), grams. */
    double getContainerCarbonG(cop::ContainerId id, TimeS t1,
                               TimeS t2) const;

    // ------------------------------------------------------------------
    // Table 2: carbon rate and budget.
    // ------------------------------------------------------------------

    /**
     * Enforce a carbon rate limit: each tick, the library computes the
     * grid power that keeps carbon emissions at or below the rate at
     * the current intensity, adds the application's zero-carbon supply
     * (virtual solar + permitted battery discharge), and spreads the
     * resulting power budget across the app's containers as power
     * caps.
     *
     * @param g_per_s carbon rate limit in grams CO2-eq per second
     */
    void setCarbonRate(double g_per_s);

    /** Stop enforcing the carbon rate (uncaps containers). */
    void clearCarbonRate();

    /** Active carbon rate limit, or nullopt. */
    std::optional<double> carbonRate() const { return rate_g_per_s_; }

    /**
     * Per-container carbon rate (Table 2's set_carbon_rate takes a
     * container): each tick the library converts the rate into a watt
     * cap at the current intensity for that container alone.
     *
     * @param id container to limit
     * @param g_per_s carbon rate limit in grams per second
     */
    void setContainerCarbonRate(cop::ContainerId id, double g_per_s);

    /** Stop enforcing a per-container rate (uncaps the container). */
    void clearContainerCarbonRate(cop::ContainerId id);

    /**
     * Set a total carbon budget; consumption is debited every tick
     * from the application's settled emissions. Enforcement policy is
     * up to the caller (see DynamicCarbonBudgetPolicy), matching the
     * paper's split between mechanism and policy.
     */
    void setCarbonBudget(double budget_g);

    /** Remaining budget in grams (negative when overrun). */
    double carbonBudgetRemaining() const;

    /** True when a budget has been set. */
    bool hasCarbonBudget() const { return budget_g_.has_value(); }

    // ------------------------------------------------------------------
    // Table 2: asynchronous notifications.
    // ------------------------------------------------------------------

    /**
     * Notify when virtual solar output changes by more than
     * `threshold` (relative) between consecutive ticks.
     */
    void notifySolarChange(ChangeNotify cb, double threshold = 0.1);

    /** Notify on grid carbon-intensity changes (relative threshold). */
    void notifyCarbonChange(ChangeNotify cb, double threshold = 0.1);

    /** Notify on the battery reaching full (edge-triggered). */
    void notifyBatteryFull(Notify cb);

    /** Notify on the battery reaching empty (edge-triggered). */
    void notifyBatteryEmpty(Notify cb);

    /** The application this library instance serves. */
    const std::string &app() const { return app_; }

  private:
    void onTick(TimeS start_s, TimeS dt_s);
    void enforceCarbonRate(TimeS start_s, TimeS dt_s);
    void enforceContainerCarbonRates();
    void fireNotifications();

    /**
     * Cached telemetry series ids + query cursor for one container.
     * Container ids are never reused, so a resolved id stays correct
     * for the ecovisor's lifetime; cursors are monotone search hints
     * (they never change results, see ts::TimeSeries).
     */
    struct ContainerSeries
    {
        ts::SeriesId power = ts::kInvalidSeries;
        ts::SeriesId carbon = ts::kInvalidSeries;
        ts::Cursor power_cursor;
        ts::Cursor carbon_cursor;
    };

    /**
     * Resolve (and cache) a container's series ids. nullptr while the
     * container has no recorded samples yet — the queries then return
     * 0, the empty-series contract. Mutable cache: queries are
     * logically const.
     */
    ContainerSeries *containerSeries(cop::ContainerId id) const;

    Ecovisor *eco_;
    std::string app_;
    api::AppHandle handle_;
    /** Interned COP index for allocation-free container walks. */
    cop::AppIndex cop_app_ = cop::kInvalidApp;
    /** The app's VES (stable for the ecovisor's lifetime). */
    const VirtualEnergySystem *ves_ = nullptr;
    /** The app's solar share, as getSolarPower() scales by it. */
    double solar_fraction_ = 0.0;
    /** Per-app series ids, resolved once at construction. */
    ts::SeriesId power_series_ = ts::kInvalidSeries;
    ts::SeriesId carbon_series_ = ts::kInvalidSeries;
    /**
     * Monotone cursors for the interval queries. Epoch-checked
     * (ts::Cursor): under bounded retention an eviction batch bumps
     * the series epoch and a stale cursor self-resets instead of
     * hinting at the wrong post-eviction index.
     */
    mutable ts::Cursor energy_cursor_;
    mutable ts::Cursor carbon_cursor_;
    mutable std::map<cop::ContainerId, ContainerSeries>
        container_series_;

    std::optional<double> rate_g_per_s_;
    std::map<cop::ContainerId, double> container_rates_g_per_s_;
    std::optional<double> budget_g_;
    double spent_g_at_budget_set_ = 0.0;

    struct ChangeWatch
    {
        ChangeNotify cb;
        double threshold;
    };
    std::vector<ChangeWatch> solar_watch_;
    std::vector<ChangeWatch> carbon_watch_;
    std::vector<Notify> full_watch_;
    std::vector<Notify> empty_watch_;

    double prev_solar_w_ = -1.0;
    double prev_carbon_ = -1.0;
    bool prev_full_ = false;
    bool prev_empty_ = false;
};

} // namespace ecov::core

#endif // ECOV_CORE_ECOLIB_H
