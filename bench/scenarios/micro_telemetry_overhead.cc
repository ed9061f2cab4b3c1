/**
 * @file
 * Microbenchmark scenario: the cost of the telemetry substrate — one
 * sample write through the string-keyed compat shim vs the interned
 * SeriesId fast path (with and without the std::to_string container
 * tagging the shim pays per call), interval queries with and without
 * the monotone cursor hint, allocation traffic on the write paths,
 * and the bounded-retention append (rollup folding + amortized
 * sealing), on one series and across a thousand, next to the heap
 * held by a bounded vs unbounded series. The companion of
 * `micro_cop_overhead`: that one times the cluster layer, this one
 * times the store every settled tick records into. All timing results
 * are host-dependent perf metrics (warn-only in `ecobench diff`).
 */

#include <chrono>
#include <cstdio>
#include <string>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/registry.h"
#include "telemetry/ts_database.h"
#include "util/table.h"

namespace ecov::bench {
namespace {

/** Time `iters` calls of `fn`; returns mean ns/op. */
template <typename Fn>
double
nsPerOp(int iters, Fn &&fn)
{
    volatile double sink = 0.0;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i)
        sink = sink + fn(i);
    const auto end = std::chrono::steady_clock::now();
    (void)sink;
    return std::chrono::duration<double, std::nano>(end - start)
               .count() /
           static_cast<double>(iters);
}

/**
 * Net heap bytes held after running `fn` (glibc mallinfo2 delta; 0
 * elsewhere). A burst of SeriesId appends grows the series' private
 * frame by one 64-row chunk per 64 appends and allocates nothing else.
 */
template <typename Fn>
double
allocBytes(Fn &&fn)
{
#if defined(__GLIBC__)
    const auto before = mallinfo2().uordblks;
    fn();
    const auto after = mallinfo2().uordblks;
    return after > before ? static_cast<double>(after - before) : 0.0;
#else
    fn();
    return 0.0;
#endif
}

ScenarioOutcome
run(const ScenarioOptions &opt)
{
    const int iters = opt.horizon == Horizon::Short ? 50000 : 500000;

    ScenarioOutcome out;
    out.metric("iterations", iters);

    TextTable t({"operation", "value"});
    auto record = [&](const std::string &key, double ns) {
        out.perfMetric(key + "_ns", ns);
        t.addRow({key, TextTable::fmt(ns, 1) + " ns/op"});
    };

    // ------------------------------------------------------------------
    // Write paths. One write per tick per series with advancing
    // timestamps — exactly the recordTelemetry access pattern. 64
    // tenants' worth of series makes the shim walk a realistic
    // intern map on every call.
    // ------------------------------------------------------------------
    {
        ts::TsDatabase db;
        for (int a = 0; a < 64; ++a) {
            const std::string app = "app" + std::to_string(a);
            for (const char *m :
                 {"app_power_w", "app_grid_w", "app_carbon_g"})
                db.write(m, app, 0, 1.0);
        }
        TimeS now = 60;
        record("write_string_app", nsPerOp(iters, [&](int) {
                   db.write("app_power_w", "app37", now++, 55.5);
                   return 0.0;
               }));
        const ts::SeriesId id = db.findSeries("app_grid_w", "app37");
        record("append_seriesid", nsPerOp(iters, [&](int) {
                   db.append(id, now++, 55.5);
                   return 0.0;
               }));

        // The per-container pattern the seed paid every tick: format
        // the container id into the tag, then resolve the string key.
        // The fast path hoists both to the container's first sight.
        const long long cid = 1234567; // container-id-shaped tag
        db.write("container_power_w", std::to_string(cid), 0, 1.0);
        record("write_string_container", nsPerOp(iters, [&](int) {
                   db.write("container_power_w", std::to_string(cid),
                            now, 20.0);
                   return 0.0;
               }));
        const ts::SeriesId cpid =
            db.findSeries("container_power_w", std::to_string(cid));
        record("append_seriesid_container", nsPerOp(iters, [&](int) {
                   db.append(cpid, now, 20.0);
                   return 0.0;
               }));
        now += 1;

        // Allocation traffic for one burst of writes per path. The
        // SeriesId path holds only its frame's chunks (16 B a sample);
        // the string shim pays for key temporaries on every call (they
        // are freed again, so measure live bytes conservatively via
        // a tag long enough to defeat SSO).
        const int burst = 4096;
        ts::TsDatabase adb;
        const ts::SeriesId rid =
            adb.intern("app_power_w", "allocation_probe_tenant_0001");
        adb.append(rid, 0, 1.0);
        double append_bytes = allocBytes([&] {
            for (int i = 1; i <= burst; ++i)
                adb.append(rid, i, 1.0);
        });
        out.perfMetric("append_seriesid_alloc_bytes", append_bytes);
        t.addRow({"append_seriesid_alloc",
                  TextTable::fmt(append_bytes, 0) + " bytes/" +
                      std::to_string(burst) + " appends"});
    }

    // ------------------------------------------------------------------
    // Query paths: a long gauge series swept by monotone interval
    // queries (the policy-loop pattern) with and without the cursor
    // hint. Results are bit-identical; only the search cost differs.
    // ------------------------------------------------------------------
    {
        ts::TsDatabase db;
        const ts::SeriesId id = db.intern("app_power_w", "app0");
        const int n = opt.horizon == Horizon::Short ? 100000 : 1000000;
        for (int i = 0; i < n; ++i)
            db.append(id, static_cast<TimeS>(i) * 60,
                      0.5 + static_cast<double>(i % 17));
        const ts::TimeSeries &s = db.series(id);
        const TimeS span = static_cast<TimeS>(n) * 60;

        volatile double guard = 0.0;
        double plain = 0.0, hinted = 0.0;
        {
            const auto start = std::chrono::steady_clock::now();
            for (int i = 0; i < iters; ++i) {
                const TimeS t1 =
                    (static_cast<TimeS>(i) * 60) % (span - 600);
                guard = guard + s.integrateWh(t1, t1 + 600);
            }
            plain = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - start)
                        .count() /
                    static_cast<double>(iters);
        }
        {
            ts::Cursor cursor;
            const auto start = std::chrono::steady_clock::now();
            for (int i = 0; i < iters; ++i) {
                const TimeS t1 =
                    (static_cast<TimeS>(i) * 60) % (span - 600);
                if (t1 == 0)
                    cursor = ts::Cursor{}; // window wrapped: restart
                guard = guard + s.integrateWh(t1, t1 + 600, &cursor);
            }
            hinted = std::chrono::duration<double, std::nano>(
                         std::chrono::steady_clock::now() - start)
                         .count() /
                     static_cast<double>(iters);
        }
        (void)guard;
        record("integrate_600s_window", plain);
        record("integrate_600s_window_cursor", hinted);
    }

    // ------------------------------------------------------------------
    // Retention: the bounded append pays for rollup folding plus the
    // amortized seal, and in exchange the series holds O(window)
    // bytes instead of O(horizon). Both are perf metrics (the heap
    // ones are exact byte counts from memoryBytes(), but they track
    // container growth policy, which is toolchain-dependent).
    // ------------------------------------------------------------------
    {
        const int n = opt.horizon == Horizon::Short ? 100000 : 1000000;

        ts::TsDatabase unbounded;
        const ts::SeriesId uid = unbounded.intern("app_power_w", "u");
        for (int i = 0; i < n; ++i)
            unbounded.append(uid, static_cast<TimeS>(i) * 60,
                             0.5 + static_cast<double>(i % 17));

        ts::TsDatabase bounded;
        ts::RetentionConfig retention;
        retention.window_s = 1440 * 60; // one day of minute ticks
        bounded.setDefaultRetention(retention);
        const ts::SeriesId bid = bounded.intern("app_power_w", "b");
        TimeS bnow = 0;
        record("append_seriesid_bounded", nsPerOp(n, [&](int) {
                   bounded.append(bid, bnow, 0.5);
                   bnow += 60;
                   return 0.0;
               }));

        // The same append across the paper mix's shape: 1028 series
        // written once per 60 s tick for two days (one sealing, at a
        // one-day window). A single series lives in L1; a thousand
        // rings and hour buckets do not, so this row sees the memory
        // traffic each append costs.
        constexpr int kSeries = 1028;
        constexpr int kTicks = 2880;
        ts::TsDatabase many;
        many.setDefaultRetention(retention);
        for (int i = 0; i < kSeries; ++i)
            many.intern("app_power_w", "s" + std::to_string(i));
        const auto t0 = std::chrono::steady_clock::now();
        for (int k = 0; k < kTicks; ++k)
            for (ts::SeriesId id = 0; id < kSeries; ++id)
                many.append(id, static_cast<TimeS>(k) * 60,
                            0.5 + static_cast<double>((k + id) % 17));
        record("append_bounded_1k_series",
               std::chrono::duration<double, std::nano>(
                   std::chrono::steady_clock::now() - t0)
                       .count() /
                   (static_cast<double>(kSeries) * kTicks));

        // The same shape through the row API, the way the ecovisor
        // records: one beginRow per tick, one put per series, one
        // endRow (the frame's chunk columns plus due seals).
        ts::TsDatabase frame;
        frame.setDefaultRetention(retention);
        for (int i = 0; i < kSeries; ++i)
            frame.join(frame.intern("app_power_w", "s" + std::to_string(i)));
        const auto r0 = std::chrono::steady_clock::now();
        for (int k = 0; k < kTicks; ++k) {
            frame.beginRow(static_cast<TimeS>(k) * 60);
            for (ts::SeriesId id = 0; id < kSeries; ++id)
                frame.put(id, 0.5 + static_cast<double>((k + id) % 17));
            frame.endRow();
        }
        record("record_row_1k_series",
               std::chrono::duration<double, std::nano>(
                   std::chrono::steady_clock::now() - r0)
                       .count() /
                   (static_cast<double>(kSeries) * kTicks));

        const double ub = static_cast<double>(unbounded.memoryBytes());
        const double bb = static_cast<double>(bounded.memoryBytes());
        out.perfMetric("series_heap_bytes_unbounded", ub);
        out.perfMetric("series_heap_bytes_bounded", bb);
        t.addRow({"series_heap_unbounded",
                  TextTable::fmt(ub / 1024.0, 1) + " KiB/" +
                      std::to_string(n) + " samples"});
        t.addRow({"series_heap_bounded",
                  TextTable::fmt(bb / 1024.0, 1) + " KiB/" +
                      std::to_string(n) + " samples"});
    }

    if (opt.print_figures) {
        std::printf("=== Microbenchmark: telemetry substrate overhead "
                    "===\n\n");
        t.print();
        std::printf("\nSanity check: the SeriesId append must beat "
                    "both string-shim writes (the container variant "
                    "pays an extra std::to_string per call), hold "
                    "~16 B per append (its frame chunks), and the "
                    "cursored monotone sweep must beat the "
                    "re-searching one.\n");
    }
    return out;
}

const ScenarioRegistrar reg({
    "micro_telemetry_overhead",
    "Microbenchmark: ns/op for telemetry writes (string shim vs "
    "SeriesId) and cursor-hinted interval queries (perf-only)",
    /*default_seed=*/1,
    {},
    run,
});

} // namespace
} // namespace ecov::bench
