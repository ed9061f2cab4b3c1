/**
 * @file
 * Golden answers for the rollup region of bounded series.
 *
 * The retention suite proves queries bit-identical to an unbounded
 * shadow, but only from exactSince() on; older windows are answered
 * from minute/hour buckets and have no shadow to compare against.
 * This suite pins those answers instead: for each retention config it
 * streams a deterministic series, and at checkpoints along the stream
 * sweeps integrateWh, sumRange, maxRange, averageOver and valueAt over
 * windows starting before exactSince() (including before all retained
 * knowledge, where the clamp applies). Every result is folded into a
 * per-query FNV-1a digest of its bit pattern, and each config also
 * pins three whole-region answers as hex floats. Any change to how the
 * rollup tiers are built or composed — even one that moves a single
 * probe by one ulp — changes a digest.
 *
 * The inputs come from a self-contained splitmix64 stream (no
 * <random> distributions), so the expectations do not depend on the
 * standard library.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>

#include "telemetry/retention.h"
#include "telemetry/time_series.h"

namespace ecov::ts {
namespace {

/** splitmix64: a portable, fully specified generator. */
struct SplitMix
{
    std::uint64_t state;

    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform double in [0, 1) from the top 53 bits. */
    double
    unit()
    {
        return static_cast<double>(next() >> 11) * 0x1p-53;
    }

    /** Uniform integer in [lo, hi]. */
    TimeS
    range(TimeS lo, TimeS hi)
    {
        return lo + static_cast<TimeS>(
                        next() % static_cast<std::uint64_t>(hi - lo + 1));
    }
};

/** Sample spacing: uniform in [min_dt, max_dt], plus a `gap_s` pause
 *  before every `gap_every`-th sample (0 = no pauses). */
struct Cadence
{
    TimeS min_dt;
    TimeS max_dt;
    int gap_every = 0;
    TimeS gap_s = 0;
};

/** Per-query digests plus the whole-region spot answers. */
struct Golden
{
    std::uint64_t integrate;
    std::uint64_t sum;
    std::uint64_t max;
    std::uint64_t average;
    std::uint64_t value_at;
    double region_integrate_wh;
    double region_sum;
    double region_max;
};

struct GoldenCase
{
    const char *name;
    RetentionConfig cfg;
    Cadence cadence;
    int appends;
    Golden expect;
};

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

void
fold(std::uint64_t *h, double v)
{
    std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
        *h ^= bits & 0xff;
        *h *= 0x100000001b3ULL;
        bits >>= 8;
    }
}

/** Window lengths: sub-bucket, bucket-seam straddling, multi-hour. */
constexpr TimeS kLengths[] = {1,    59,   60,    61,    599,  600,
                              3599, 3600, 3601,  7200,  86400};

constexpr int kCheckpoints = 128;
constexpr int kProbesPerCheckpoint = 150;

struct SweepResult
{
    Golden got{kFnvBasis, kFnvBasis, kFnvBasis, kFnvBasis, kFnvBasis,
               0.0,       0.0,       0.0};
    int probes = 0;
};

SweepResult
sweep(const GoldenCase &c)
{
    TimeSeries s;
    s.setRetention(c.cfg);
    SplitMix data{0x5eed0000ULL + static_cast<std::uint64_t>(c.appends)};
    SplitMix probe{0x9e0be5ULL};
    SweepResult r;
    const TimeS first_t = 443; // unaligned start
    TimeS t = first_t;
    for (int i = 0; i < c.appends; ++i) {
        if (i > 0) {
            t += data.range(c.cadence.min_dt, c.cadence.max_dt);
            if (c.cadence.gap_every > 0 && i % c.cadence.gap_every == 0)
                t += c.cadence.gap_s;
        }
        s.append(t, data.unit() * 100.0 - 20.0);
        const bool checkpoint =
            (i + 1) % (c.appends / kCheckpoints) == 0;
        if (!checkpoint || !s.hasRetired())
            continue;
        // Half the probes start anywhere from before all retained
        // knowledge; half within two hours of exactSince(), where the
        // minute/hour seam and the newest closed buckets are.
        const TimeS lo = first_t - 600;
        const TimeS hi = s.exactSince();
        const TimeS near = std::max(lo, hi - 7200);
        for (int p = 0; p < kProbesPerCheckpoint; ++p) {
            const TimeS t1 = probe.range(p % 2 == 0 ? lo : near, hi - 1);
            const TimeS t2 =
                t1 + kLengths[probe.next() % std::size(kLengths)];
            fold(&r.got.integrate, s.integrateWh(t1, t2));
            fold(&r.got.sum, s.sumRange(t1, t2));
            fold(&r.got.max, s.maxRange(t1, t2));
            fold(&r.got.average, s.averageOver(t1, t2));
            fold(&r.got.value_at, s.valueAt(t1));
            ++r.probes;
        }
    }
    if (s.hasRetired()) {
        r.got.region_integrate_wh =
            s.integrateWh(first_t - 600, s.exactSince());
        r.got.region_sum = s.sumRange(first_t - 600, s.exactSince());
        r.got.region_max = s.maxRange(first_t - 600, s.exactSince());
    }
    return r;
}

std::string
hex64(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llxULL",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
hexDouble(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

/** The actual values as a paste-ready Golden initializer. */
std::string
initializer(const Golden &g)
{
    return "{" + hex64(g.integrate) + ", " + hex64(g.sum) + ", " +
           hex64(g.max) + ", " + hex64(g.average) + ", " +
           hex64(g.value_at) + ", " + hexDouble(g.region_integrate_wh) +
           ", " + hexDouble(g.region_sum) + ", " +
           hexDouble(g.region_max) + "}";
}

RetentionConfig
window(TimeS w, std::size_t batch = 64)
{
    RetentionConfig c;
    c.window_s = w;
    c.seal_batch = batch;
    return c;
}

RetentionConfig
count(std::size_t n, std::size_t batch = 64)
{
    RetentionConfig c;
    c.max_samples = n;
    c.seal_batch = batch;
    return c;
}

RetentionConfig
bothBounds()
{
    RetentionConfig c = count(100);
    c.window_s = 3600;
    return c;
}

/** Every keep multiplier below 1: setRetention clamps all to 1, so
 *  cold blocks retire as soon as they age out of the ring (under a
 *  window bound, the newest block can retire on the seal that makes
 *  it, and the minute tier can drop every sealed bucket). */
RetentionConfig
keepsClamped(RetentionConfig c)
{
    c.cold_keep = 0.5;
    c.minute_keep = 0.0;
    c.hour_keep = 0.0;
    return c;
}

const GoldenCase kCases[] = {
    {"one_day_window_60s_ticks", window(86400), {60, 60}, 14400,
     {0xd43205a98531f119ULL, 0x67619caf89a0421bULL,
      0x3941118d1c45f9daULL, 0xb20ece299c2521e0ULL,
      0x656658d6cd4ced15ULL,
      0x1.09e73f564d57bp+12, 0x1.f293c6b1eacd8p+17, 0x1.3ffe05881b073p+6}},
    {"window_90s", window(90, 16), {5, 15}, 20000,
     {0xb5cb9f50a9141c98ULL, 0xca7320ee83dcd131ULL,
      0xcfcecea34986291cULL, 0xe88c863773d4b515ULL,
      0xc83ee3a9093de61dULL,
      0x1.558a2898aea1cp+5, 0x1.d9c163b78b3e8p+13, 0x1.3f3e1c09ffcbbp+6}},
    {"window_600s", window(600), {1, 40}, 20000,
     {0xa57619184184c960ULL, 0x32e5cc15397eaeefULL,
      0xd3f275893e2d477fULL, 0xb02ab6ee0a6da5f3ULL,
      0xfe82bf76f490dcccULL,
      0x1.27166b1a4012cp+8, 0x1.91bbaa91846a5p+15, 0x1.3f9f9fd780506p+6}},
    {"window_1800s", window(1800), {30, 90}, 12000,
     {0x9ccceec68771f87dULL, 0x70b7443f53a75e3eULL,
      0x68ecdd002aee63dbULL, 0xbf0e6062f45fb4cfULL,
      0x5e5da5d367d8b682ULL,
      0x1.bd621ec4045a8p+9, 0x1.a61c22095d852p+15, 0x1.3ff4d7e6839aap+6}},
    {"window_2h", window(7200), {60, 60}, 12000,
     {0x108c55995624b941ULL, 0x8aade20db4e3aafaULL,
      0x045c24f4fdc48aedULL, 0x97b4380284f52409ULL,
      0x28b78031cfba932fULL,
      0x1.c0d5f6a6c7b96p+11, 0x1.a4ca55829bd4ep+17, 0x1.3fd672e04cf44p+6}},
    {"count_50", count(50, 8), {1, 120}, 12000,
     {0xaec86a1dad6012b7ULL, 0xfd1ddcf3be82e2fcULL,
      0xb5c72dc42b2db0c3ULL, 0x4780b0948da26ff8ULL,
      0xbf6e6858eab12041ULL,
      0x1.501533bd35355p+10, 0x1.2e16c1652a029p+16, 0x1.3ff4d7e6839aap+6}},
    {"count_100", count(100), {60, 60}, 12000,
     {0x5e2be852f96cfb27ULL, 0xd041497938b6fa33ULL,
      0xc909fe58e596256dULL, 0xe71f1e7b68cc1eb0ULL,
      0xf26be6ea710d5d16ULL,
      0x1.6f3012c64213ap+11, 0x1.5845a4c52ae74p+17, 0x1.3fd4f29bd598dp+6}},
    {"both_bounds", bothBounds(), {10, 110}, 12000,
     {0xff7b80cbe853386dULL, 0x7fa7fd24ae1e40e4ULL,
      0x22cba0f7237b5257ULL, 0x6713b64dc3667b88ULL,
      0x81234ea915d945d3ULL,
      0x1.bde3fedb2e863p+10, 0x1.9d958ad0ffc65p+16, 0x1.3ff4d7e6839aap+6}},
    {"keeps_clamped_to_1", keepsClamped(count(50, 8)), {1, 120}, 12000,
     {0x77a7de4b01bd769cULL, 0x3ab245d48570be57ULL,
      0x9dcd17e7f6ccc6b4ULL, 0xefb675ddb1730a80ULL,
      0xac2fd85fdc5aa302ULL,
      0x0p+0, 0x0p+0, 0x0p+0}},
    {"window_600s_keeps_clamped", keepsClamped(window(600, 8)), {1, 120},
     12000,
     {0xf18bb95e4d483ad1ULL, 0x0a7765fa15292668ULL,
      0xd1c7273c310cb4a8ULL, 0x5d2be9d4391965c7ULL,
      0x498a560fe612f4e7ULL,
      0x0p+0, 0x0p+0, 0x0p+0}},
    {"gaps_5000s_keeps_clamped", keepsClamped(window(1800, 8)),
     {10, 90, 97, 5000}, 12000,
     {0xf438720c25d13ee8ULL, 0x740a02cfd75357f1ULL,
      0x1ff874e4daa4da07ULL, 0xa53518c7006b8540ULL,
      0xc97ae64ad3b40a09ULL,
      0x1.8b8b5d7a76187p-1, 0x1.4e5c9f8432cecp+5, 0x1.628afce55b79p+4}},
    {"window_90s_gaps_5000s", window(90, 16), {5, 15, 97, 5000}, 20000,
     {0xf5e3ecd48a4fa94dULL, 0xe4aafd58ea1f05b3ULL,
      0xbd23e868b2e44922ULL, 0xfa8afbc106c6c516ULL,
      0x694797fa90e6bfb1ULL,
      0x1.850bc257a6f53p+2, 0x1.6bf0af591b3ccp+11, 0x1.3f3e1c09ffcbbp+6}},
    {"gaps_5000s", window(1800), {10, 90, 97, 5000}, 12000,
     {0x9e471a8f29b606b0ULL, 0xecf9c62dd770da02ULL,
      0x00d22404821bb68cULL, 0x3a1a11193926a615ULL,
      0xa1b3268002dfecdeULL,
      0x1.90e4db2eb646ep+9, 0x1.f5ae61f53893ap+14, 0x1.3ffc86b5d5533p+6}},
};

/** gtest prints a parameter by name, not as raw bytes. */
void
PrintTo(const GoldenCase &c, std::ostream *os)
{
    *os << c.name;
}

class RollupGolden : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(RollupGolden, RollupRegionAnswersMatchGolden)
{
    const GoldenCase &c = GetParam();
    const SweepResult r = sweep(c);
    // Every checkpoint after the first retirement probes the region.
    ASSERT_GE(r.probes, kProbesPerCheckpoint * kCheckpoints / 2);
    const Golden &e = c.expect;
    const std::string actual = "actual: " + initializer(r.got);
    EXPECT_EQ(hex64(r.got.integrate), hex64(e.integrate)) << actual;
    EXPECT_EQ(hex64(r.got.sum), hex64(e.sum)) << actual;
    EXPECT_EQ(hex64(r.got.max), hex64(e.max)) << actual;
    EXPECT_EQ(hex64(r.got.average), hex64(e.average)) << actual;
    EXPECT_EQ(hex64(r.got.value_at), hex64(e.value_at)) << actual;
    EXPECT_EQ(hexDouble(r.got.region_integrate_wh),
              hexDouble(e.region_integrate_wh))
        << actual;
    EXPECT_EQ(hexDouble(r.got.region_sum), hexDouble(e.region_sum))
        << actual;
    EXPECT_EQ(hexDouble(r.got.region_max), hexDouble(e.region_max))
        << actual;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, RollupGolden, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<GoldenCase> &param) {
        return std::string(param.param.name);
    });

/**
 * Randomized rollup-region sweep: 100 seeded retention configs (count,
 * window and both bounds; seal_batch 1-128; keeps 0-80 before
 * clamping, mostly small so the rollup drop cuts reach the cold
 * blocks; gaps up to 20000 s) each stream a series and sweep the
 * five queries over windows reaching behind exactSince(). One digest
 * over every answer pins them all. The config mix is asserted too, so
 * the sweep keeps covering the cases where lazily built rollups can
 * diverge: count bounds across long gaps (the effective window, and
 * with it the rollup drop cut, moves backwards), several cold blocks
 * retiring in one seal, seal_batch 1 and keeps clamped to 1.
 */
TEST(RollupGoldenRandom, RandomConfigsMatchDigest)
{
    constexpr int kConfigs = 100;
    constexpr int kAppends = 4000;
    constexpr int kSweeps = 64;
    constexpr int kProbes = 24;
    std::uint64_t digest = kFnvBasis;
    int retired = 0, multi_retire = 0, count_gaps = 0, batch_one = 0,
        clamped = 0;
    for (int k = 0; k < kConfigs; ++k) {
        SplitMix g{0xc0ffee00ULL + static_cast<std::uint64_t>(k)};
        RetentionConfig cfg;
        if (k % 3 != 1)
            cfg.max_samples = static_cast<std::size_t>(g.range(10, 300));
        if (k % 3 != 0)
            cfg.window_s = g.range(60, 7200);
        cfg.seal_batch =
            k % 5 == 0 ? 1 : static_cast<std::size_t>(g.range(1, 128));
        cfg.cold_keep = g.unit() * 3.0;
        cfg.minute_keep = g.unit() * 6.0;
        cfg.hour_keep = g.unit() * 80.0;
        Cadence cad;
        cad.min_dt = g.range(1, 60);
        cad.max_dt = cad.min_dt + g.range(0, 120);
        if (k % 4 != 3) {
            cad.gap_every = static_cast<int>(g.range(5, 200));
            cad.gap_s = k % 4 == 0 ? 5000 : g.range(100, 20000);
        }
        count_gaps += cfg.max_samples > 0 && cad.gap_s >= 5000;
        batch_one += cfg.seal_batch == 1;
        clamped += cfg.cold_keep < 1.0 ||
                   cfg.minute_keep < cfg.cold_keep ||
                   cfg.hour_keep < cfg.minute_keep;

        TimeSeries s;
        s.setRetention(cfg);
        SplitMix data{0xda7a0000ULL + static_cast<std::uint64_t>(k)};
        const TimeS first_t = 443;
        TimeS t = first_t;
        bool saw_multi = false;
        for (int i = 0; i < kAppends; ++i) {
            if (i > 0) {
                t += data.range(cad.min_dt, cad.max_dt);
                if (cad.gap_every > 0 && i % cad.gap_every == 0)
                    t += cad.gap_s;
            }
            const std::size_t blocks = s.coldBlockCount();
            const std::uint64_t epoch = s.epoch();
            s.append(t, data.unit() * 100.0 - 20.0);
            // A seal adds one block; more than one retiring shows as
            // a net drop of two or more.
            if (blocks + (s.epoch() != epoch) >= s.coldBlockCount() + 2)
                saw_multi = true;
            if ((i + 1) % (kAppends / kSweeps) != 0 || !s.hasRetired())
                continue;
            const TimeS lo = first_t - 600;
            const TimeS hi = s.exactSince();
            for (int p = 0; p < kProbes; ++p) {
                const TimeS t1 = data.range(
                    p % 2 == 0 ? lo : std::max(lo, hi - 20000), hi - 1);
                const TimeS t2 = t1 + (p % 3 == 0
                                           ? data.range(1, 20000)
                                           : kLengths[data.next() %
                                                      std::size(kLengths)]);
                fold(&digest, s.integrateWh(t1, t2));
                fold(&digest, s.sumRange(t1, t2));
                fold(&digest, s.maxRange(t1, t2));
                fold(&digest, s.averageOver(t1, t2));
                fold(&digest, s.valueAt(t1));
            }
        }
        retired += s.hasRetired();
        multi_retire += saw_multi;
    }
    EXPECT_GE(retired, 90);
    EXPECT_GE(multi_retire, 30);
    EXPECT_GE(count_gaps, 40);
    EXPECT_GE(batch_one, 20);
    EXPECT_GE(clamped, 40);
    EXPECT_EQ(hex64(digest), "0x5f66b338f1871bddULL");
}

} // namespace
} // namespace ecov::ts
