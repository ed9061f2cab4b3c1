/**
 * @file
 * ts::TierQueue, the head-indexed FIFO under the cold and rollup
 * tiers and the frame's chunk table: random push/pop sequences must
 * read exactly like a std::deque, an empty queue must hold no storage,
 * and the queue must compact rather than grow once an eighth of it is
 * dead.
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
    }
}

/** Pop the n oldest elements of both. */
template <typename Q>
void
popBoth(Q *q, std::deque<std::uint64_t> *shadow, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(q->pop_front(), shadow->front());
        shadow->pop_front();
    }
}

/**
 * Random push_back/pop_front batches against a std::deque shadow.
 * Whenever a push grows the vector, it must have been full (head plus
 * live == capacity) with under an eighth of it dead.
 */
void
randomOpsMatchDeque(std::uint64_t seed)
{
    Rng rng(seed);
    TierQueue<std::uint64_t> q;
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
                ASSERT_LT(8 * dead, cap) << "op=" << op;
            }
        } else if (r < (filling ? 0.95 : 0.7)) {
            popBoth(&q, &shadow, 1);
        } else {
            // Mostly batch-sized drops; now and then the whole queue.
            const auto most = static_cast<std::int64_t>(shadow.size());
            const auto n = static_cast<std::size_t>(rng.uniformInt(
                1, rng.bernoulli(0.05) ? most : std::min<std::int64_t>(
                                                    most, 8)));
            popBoth(&q, &shadow, n);
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
        randomOpsMatchDeque(seed);
}

TEST(TierQueue, EmptyQueueAllocatesNothing)
{
    const TierQueue<std::uint64_t> eighth;
    EXPECT_EQ(eighth.capacity(), 0u);
    EXPECT_TRUE(eighth.empty());
    EXPECT_EQ(eighth.begin(), eighth.end());
}

/** Fill a queue to exactly its capacity; returns that capacity. */
template <typename Q>
std::size_t
fillToCapacity(Q *q)
{
    std::uint64_t v = 0;
    while (q->size() < 64 || q->size() < q->capacity())
        q->push_back(v++);
    return q->capacity();
}

TEST(TierQueue, EighthDeadRuleCompactsAtAnEighthDead)
{
    TierQueue<std::uint64_t> q;
    const std::size_t cap = fillToCapacity(&q);
    const std::size_t eighth = (cap + 7) / 8;
    for (std::size_t i = 0; i < eighth; ++i)
        q.pop_front();
    q.push_back(1000);
    EXPECT_EQ(q.capacity(), cap);
    EXPECT_EQ(q.size(), cap - eighth + 1);
    EXPECT_EQ(q.front(), eighth);

    // Under an eighth dead, a full vector grows instead.
    TierQueue<std::uint64_t> r;
    const std::size_t rcap = fillToCapacity(&r);
    for (std::size_t i = 0; i + 1 < eighth; ++i)
        r.pop_front();
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
    // pop_front hands the element back; dropping it releases it.
    EXPECT_EQ(q.pop_front(), held);
    EXPECT_EQ(held.use_count(), 1);
    q.pop_front();
    EXPECT_TRUE(q.empty());

    // Draining resets the head: the next push reuses the vector from
    // its start rather than growing.
    TierQueue<std::uint64_t> d;
    const std::size_t cap = fillToCapacity(&d);
    while (!d.empty())
        d.pop_front();
    EXPECT_TRUE(d.empty());
    for (std::uint64_t v = 0; v < cap; ++v)
        d.push_back(v);
    EXPECT_EQ(d.capacity(), cap);
    EXPECT_EQ(d.front(), 0u);
}

} // namespace
} // namespace ecov::ts
