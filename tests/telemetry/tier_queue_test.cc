/**
 * @file
 * ts::TierQueue, the head-indexed FIFO under every retention tier:
 * random push/pop/drop sequences must read exactly like a std::deque,
 * an empty queue must hold no storage, and each compaction rule must
 * compact rather than grow whenever its dead-prefix condition holds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>

#include "telemetry/retention.h"
#include "util/rng.h"

namespace ecov::ts {
namespace {

template <typename Q>
void
expectSameContents(const Q &q, const std::deque<std::uint64_t> &shadow)
{
    ASSERT_EQ(q.size(), shadow.size());
    ASSERT_EQ(q.empty(), shadow.empty());
    ASSERT_EQ(static_cast<std::size_t>(q.end() - q.begin()),
              shadow.size());
    for (std::size_t i = 0; i < shadow.size(); ++i) {
        ASSERT_EQ(q[i], shadow[i]) << "i=" << i;
        ASSERT_EQ(q.begin()[i], shadow[i]) << "i=" << i;
    }
    if (!shadow.empty()) {
        ASSERT_EQ(q.front(), shadow.front());
        ASSERT_EQ(q.back(), shadow.back());
        ASSERT_EQ(q.data(), q.begin());
    }
}

/**
 * Random push_back/pop_front/dropFront against a std::deque shadow.
 * Whenever a push grows the vector, it must have been full (head plus
 * live == capacity) with a dead prefix the rule does not compact:
 * none under the any-dead rule, under an eighth under the 1/8 rule.
 */
template <bool kCompactAnyDead>
void
randomOpsMatchDeque(std::uint64_t seed)
{
    Rng rng(seed);
    TierQueue<std::uint64_t, kCompactAnyDead> q;
    std::deque<std::uint64_t> shadow;
    std::uint64_t next = 0;
    int growths = 0, drops = 0;
    for (int op = 0; op < 20000; ++op) {
        const double r = rng.uniform(0.0, 1.0);
        // Phases bias toward growth, then toward draining, so the
        // queue both fills past several capacities and empties out.
        const bool filling = (op / 2000) % 2 == 0;
        if (r < (filling ? 0.85 : 0.3) || shadow.empty()) {
            const std::size_t cap = q.capacity();
            const std::size_t live = q.size();
            q.push_back(next);
            shadow.push_back(next);
            ++next;
            if (q.capacity() != cap && cap > 0) {
                ++growths;
                // Grown, so it was full: everything before the live
                // elements was dead.
                const std::size_t dead = cap - live;
                if (kCompactAnyDead)
                    ASSERT_EQ(dead, 0u) << "op=" << op;
                else
                    ASSERT_LT(8 * dead, cap) << "op=" << op;
            }
        } else if (r < (filling ? 0.95 : 0.7)) {
            q.pop_front();
            shadow.pop_front();
        } else {
            // Mostly batch-sized drops; now and then the whole queue.
            const auto most = static_cast<std::int64_t>(shadow.size());
            const auto n = static_cast<std::size_t>(rng.uniformInt(
                1, rng.bernoulli(0.05) ? most : std::min<std::int64_t>(
                                                    most, 8)));
            q.dropFront(n);
            shadow.erase(shadow.begin(),
                         shadow.begin() + static_cast<std::ptrdiff_t>(n));
            ++drops;
        }
        expectSameContents(q, shadow);
        if (shadow.empty())
            ASSERT_EQ(q.begin(), q.end());
    }
    EXPECT_GT(growths, 5);
    EXPECT_GT(drops, 1000);
}

TEST(TierQueue, RandomOpsMatchDequeEighthDeadRule)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        randomOpsMatchDeque<false>(seed);
}

TEST(TierQueue, RandomOpsMatchDequeAnyDeadRule)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        randomOpsMatchDeque<true>(seed);
}

TEST(TierQueue, EmptyQueueAllocatesNothing)
{
    const TierQueue<std::uint64_t> eighth;
    const TierQueue<std::uint64_t, true> any;
    EXPECT_EQ(eighth.capacity(), 0u);
    EXPECT_EQ(any.capacity(), 0u);
    EXPECT_TRUE(eighth.empty());
    EXPECT_EQ(eighth.begin(), eighth.end());
    EXPECT_EQ(any.begin(), any.end());
}

/** Fill a queue to exactly its capacity; returns that capacity. */
template <typename Q>
std::size_t
fillToCapacity(Q *q)
{
    std::uint64_t v = 0;
    q->reserve(64);
    while (q->size() < q->capacity())
        q->push_back(v++);
    return q->capacity();
}

TEST(TierQueue, AnyDeadRuleCompactsOnOneDeadElement)
{
    TierQueue<std::uint64_t, true> q;
    const std::size_t cap = fillToCapacity(&q);
    q.pop_front();
    q.push_back(1000);
    EXPECT_EQ(q.capacity(), cap);
    EXPECT_EQ(q.size(), cap);
    EXPECT_EQ(q.front(), 1u);
    EXPECT_EQ(q.back(), 1000u);
    // Full with no dead prefix: only now does it grow.
    q.push_back(1001);
    EXPECT_GT(q.capacity(), cap);
}

TEST(TierQueue, EighthDeadRuleCompactsAtAnEighthDead)
{
    TierQueue<std::uint64_t> q;
    const std::size_t cap = fillToCapacity(&q);
    const std::size_t eighth = (cap + 7) / 8;
    q.dropFront(eighth);
    q.push_back(1000);
    EXPECT_EQ(q.capacity(), cap);
    EXPECT_EQ(q.size(), cap - eighth + 1);
    EXPECT_EQ(q.front(), eighth);

    // Under an eighth dead, a full vector grows instead.
    TierQueue<std::uint64_t> r;
    const std::size_t rcap = fillToCapacity(&r);
    r.dropFront(eighth - 1);
    r.push_back(1000);
    EXPECT_GT(r.capacity(), rcap);
    EXPECT_EQ(r.front(), eighth - 1);
}

TEST(TierQueue, PopReleasesElementsAndDrainingResetsHead)
{
    TierQueue<std::shared_ptr<int>> q;
    auto held = std::make_shared<int>(7);
    q.push_back(held);
    q.push_back(std::make_shared<int>(8));
    EXPECT_EQ(held.use_count(), 2);
    q.pop_front();
    EXPECT_EQ(held.use_count(), 1);
    q.pop_front();
    EXPECT_TRUE(q.empty());

    // Draining with dropFront resets the head: the next push reuses
    // the vector from its start rather than growing.
    TierQueue<std::uint64_t, true> d;
    const std::size_t cap = fillToCapacity(&d);
    d.dropFront(d.size());
    EXPECT_TRUE(d.empty());
    for (std::uint64_t v = 0; v < cap; ++v)
        d.push_back(v);
    EXPECT_EQ(d.capacity(), cap);
    EXPECT_EQ(d.front(), 0u);
}

} // namespace
} // namespace ecov::ts
