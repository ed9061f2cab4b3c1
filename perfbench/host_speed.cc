#include "host_speed.h"

#include <algorithm>
#include <cstdio>

#include "stats.h"

namespace perfbench {

namespace {

constexpr std::size_t kSlots = std::size_t{1} << 16;
constexpr int kKeysPerRound = 30000;
constexpr int kTimedRounds = 4;

std::uint64_t
xorshift(std::uint64_t *x)
{
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    return *x;
}

} // namespace

HostSpeed::HostSpeed() : keys_(kSlots), slots_(kSlots), vals_(kSlots) {}

void
HostSpeed::round()
{
    // Every pass starts from the same state, so its work is fixed.
    std::fill(keys_.begin(), keys_.end(), 0);
    std::fill(slots_.begin(), slots_.end(), 0.0);
    rng_ = 88172645463325252ull;
    auto slotOf = [&](std::uint64_t k) {
        std::size_t h = (k * 0x9E3779B97F4A7C15ull) >> 48;
        while (keys_[h] != 0 && keys_[h] != k)
            h = (h + 1) & (kSlots - 1);
        return h;
    };
    for (int i = 0; i < kKeysPerRound; ++i) {
        const std::uint64_t k = xorshift(&rng_) | 1;
        const std::size_t h = slotOf(k);
        keys_[h] = k;
        slots_[h] += 1.5;
    }
    for (int i = 0; i < kKeysPerRound; ++i) {
        const std::uint64_t k = xorshift(&rng_) | 1;
        const std::size_t h = slotOf(k);
        if (keys_[h] == k)
            sink_ += slots_[h];
    }
    for (double &v : vals_)
        v = static_cast<double>(xorshift(&rng_) >> 11);
    std::sort(vals_.begin(), vals_.end());
    sink_ += vals_[kSlots / 2];
}

double
HostSpeed::pass()
{
    round();
    const auto t0 = Clock::now();
    for (int r = 0; r < kTimedRounds; ++r)
        round();
    const double us = toUs(Clock::now() - t0);
    if (sink_ < 0.0) // keeps the kernel's work observable
        std::fprintf(stderr, "perfbench: host kernel sink %g\n", sink_);
    passes_us_.push_back(us);
    return us;
}

double
HostSpeed::scaleSinceLastPass()
{
    const double before = passes_us_.back();
    const double after = pass();
    return 0.5 * (before + after) / kNominalUs;
}

} // namespace perfbench
