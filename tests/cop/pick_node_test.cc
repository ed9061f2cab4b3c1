/**
 * @file
 * Container placement against the plain LXD rule, evaluated by a
 * linear scan over the public node state before every create: the
 * node with the fewest instances among those with freeCores() + 1e-9
 * >= cores, ties to the lowest index, or no node at all. Randomized
 * create/destroy/resize churn over mixed node and container sizes,
 * with full nodes, and across a capture/restore into a fresh cluster.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cop/cluster.h"
#include "util/rng.h"

namespace ecov::cop {
namespace {

/** The reference rule: a scan over every node. */
int
linearPick(const Cluster &cluster, double cores)
{
    int best = -1;
    for (int i = 0; i < cluster.nodeCount(); ++i) {
        if (cluster.node(i).freeCores() + 1e-9 < cores)
            continue;
        if (best < 0 ||
            cluster.node(i).instances < cluster.node(best).instances)
            best = i;
    }
    return best;
}

std::vector<power::ServerPowerConfig>
mixedNodes(Rng &rng, int n)
{
    std::vector<power::ServerPowerConfig> out;
    for (int i = 0; i < n; ++i) {
        power::ServerPowerConfig cfg;
        cfg.cores = static_cast<int>(rng.uniformInt(1, 8));
        out.push_back(cfg);
    }
    return out;
}

/** Container sizes that fill nodes exactly as well as fractionally. */
double
randomCores(Rng &rng)
{
    static const double sizes[] = {0.25, 0.5, 1.0, 1.0, 1.5, 2.0, 3.0,
                                   4.0, 0.1, 0.7, 8.0, 9.0};
    return sizes[rng.uniformInt(0, 11)];
}

/**
 * Drive `steps` random operations, checking each create's node
 * against linearPick. Returns the ids still live.
 */
void
churn(Cluster &cluster, Rng &rng, std::vector<ContainerId> &live,
      int steps, int *placed, int *rejected)
{
    for (int step = 0; step < steps; ++step) {
        const int op = static_cast<int>(rng.uniformInt(0, 9));
        if (op <= 4 || live.empty()) {
            const double cores = randomCores(rng);
            const int want = linearPick(cluster, cores);
            auto id = cluster.createContainer("app", cores);
            if (want < 0) {
                ASSERT_FALSE(id.has_value()) << "step " << step;
                ++*rejected;
                continue;
            }
            ASSERT_TRUE(id.has_value()) << "step " << step;
            ASSERT_EQ(cluster.container(*id).node, want)
                << "step " << step << " cores " << cores;
            live.push_back(*id);
            ++*placed;
        } else if (op <= 7) {
            const auto k = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(live.size()) - 1));
            cluster.destroyContainer(live[k]);
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
        } else {
            // Vertical scaling moves a node's free cores but not its
            // instance count.
            const auto k = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(live.size()) - 1));
            (void)cluster.setCores(live[k], randomCores(rng));
        }
    }
}

TEST(PickNode, MatchesTheLinearScanUnderChurn)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        Cluster cluster(mixedNodes(rng, static_cast<int>(
                                            rng.uniformInt(1, 40))));
        std::vector<ContainerId> live;
        int placed = 0;
        int rejected = 0;
        ASSERT_NO_FATAL_FAILURE(
            churn(cluster, rng, live, 3000, &placed, &rejected));
        EXPECT_GT(placed, 100);
        EXPECT_GT(rejected, 0); // full clusters were reached
    }
}

TEST(PickNode, HomogeneousTiesGoToTheLowestIndex)
{
    Cluster cluster(6, power::ServerPowerConfig{});
    // Round-robin over equal nodes: instance counts tie, so each
    // create takes the lowest index among the least-loaded nodes.
    for (int i = 0; i < 12; ++i) {
        auto id = cluster.createContainer("app", 1.0);
        ASSERT_TRUE(id);
        EXPECT_EQ(cluster.container(*id).node, i % 6);
    }
    // Free node 3 twice and node 1 once; the next creates refill
    // node 3, then node 1 and 3 tie and 1 wins.
    std::vector<ContainerId> on3;
    for (ContainerId id = 1; id <= 12; ++id)
        if (cluster.container(id).node == 3)
            on3.push_back(id);
    cluster.destroyContainer(on3[0]);
    cluster.destroyContainer(on3[1]);
    cluster.destroyContainer(2); // node 1
    EXPECT_EQ(cluster.container(*cluster.createContainer("app", 1.0)).node,
              3);
    EXPECT_EQ(cluster.container(*cluster.createContainer("app", 1.0)).node,
              1);
    EXPECT_EQ(cluster.container(*cluster.createContainer("app", 1.0)).node,
              3);
    // Every node now hosts 2 containers on 4 cores; a 3-core request
    // fits nowhere, a 2-core one goes to node 0.
    EXPECT_FALSE(cluster.createContainer("app", 3.0).has_value());
    EXPECT_EQ(cluster.container(*cluster.createContainer("app", 2.0)).node,
              0);
}

TEST(PickNode, RestoredClusterPlacesLikeTheOriginal)
{
    for (std::uint64_t seed = 11; seed <= 14; ++seed) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        const auto nodes =
            mixedNodes(rng, static_cast<int>(rng.uniformInt(2, 30)));
        Cluster cluster(nodes);
        std::vector<ContainerId> live;
        int placed = 0;
        int rejected = 0;
        ASSERT_NO_FATAL_FAILURE(
            churn(cluster, rng, live, 800, &placed, &rejected));

        Cluster restored(nodes);
        restored.restoreState(cluster.captureState());
        // The same operations on both clusters place identically, and
        // each placement still matches the scan.
        Rng a(seed * 7);
        Rng b(seed * 7);
        std::vector<ContainerId> live_a = live;
        std::vector<ContainerId> live_b = live;
        int pa = 0, ra = 0, pb = 0, rb = 0;
        ASSERT_NO_FATAL_FAILURE(churn(cluster, a, live_a, 800, &pa, &ra));
        ASSERT_NO_FATAL_FAILURE(
            churn(restored, b, live_b, 800, &pb, &rb));
        ASSERT_EQ(live_a, live_b);
        for (ContainerId id : live_a)
            ASSERT_EQ(cluster.container(id).node,
                      restored.container(id).node);
    }
}

} // namespace
} // namespace ecov::cop
