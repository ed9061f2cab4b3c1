/**
 * @file
 * Container power caps under container churn: a recycled slab slot
 * never inherits its previous occupant's cap, the v1 id getter keeps
 * answering for a container destroyed earlier in the tick until the
 * next settlement prunes it, applyCapBatch stays all-or-nothing, and
 * captureState().powercaps equals an id-keyed reference model after
 * every step of a randomized churn (and survives a restore).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "common/rig.h"
#include "util/rng.h"

namespace ecov::core {
namespace {

using api::ContainerHandle;

ContainerHandle
handle(const cop::Cluster &cluster, cop::ContainerId id)
{
    return api::handleOf(cluster, id);
}

TEST(PowercapTable, RecycledSlotNeverInheritsACap)
{
    testutil::Rig rig;
    const auto app = rig.eco.tryAddApp("a", AppShareConfig{}).value();
    (void)app;
    const cop::ContainerId a = *rig.cluster.createContainer("a", 1.0);
    const ContainerHandle ha = handle(rig.cluster, a);
    ASSERT_TRUE(rig.eco.setContainerPowercap(ha, 2.0).ok());
    rig.cluster.destroyContainer(a);

    // The LIFO free list hands a's slot to the next container.
    const cop::ContainerId b = *rig.cluster.createContainer("a", 1.0);
    const ContainerHandle hb = handle(rig.cluster, b);
    ASSERT_EQ(hb.ref().slot, ha.ref().slot);
    EXPECT_EQ(rig.eco.getContainerPowercap(hb).value(), kUnlimitedW);
    EXPECT_EQ(rig.eco.getContainerPowercap(b), kUnlimitedW);
    rig.eco.settleTick(0, 60);
    EXPECT_EQ(rig.cluster.container(b).util_cap, 1.0);
    EXPECT_EQ(rig.eco.getContainerPowercap(hb).value(), kUnlimitedW);
    EXPECT_TRUE(rig.eco.captureState().powercaps.empty());

    // A cap staged for a container that dies before settlement is
    // dropped, even though its slot is live again by then.
    api::CapBatch batch;
    batch.add(hb, 1.5);
    ASSERT_TRUE(rig.eco.applyCapBatch(batch).ok());
    rig.cluster.destroyContainer(b);
    const cop::ContainerId c = *rig.cluster.createContainer("a", 1.0);
    ASSERT_EQ(handle(rig.cluster, c).ref().slot, hb.ref().slot);
    rig.eco.settleTick(60, 60);
    EXPECT_EQ(rig.cluster.container(c).util_cap, 1.0);
    EXPECT_EQ(rig.eco.getContainerPowercap(c), kUnlimitedW);
    EXPECT_TRUE(rig.eco.captureState().powercaps.empty());
}

TEST(PowercapTable, V1GetterAnswersForAContainerDestroyedThisTick)
{
    testutil::Rig rig;
    rig.eco.tryAddApp("a", AppShareConfig{}).value();
    const cop::ContainerId a = *rig.cluster.createContainer("a", 1.0);
    const cop::ContainerId keep = *rig.cluster.createContainer("a", 1.0);
    rig.eco.setContainerPowercap(a, 3.0);
    rig.eco.setContainerPowercap(keep, 4.0);
    rig.eco.settleTick(0, 60);

    // Destroyed after the last settlement: the cap is still on the
    // books, under the dead id, until the next settlement prunes it.
    rig.cluster.destroyContainer(a);
    EXPECT_EQ(rig.eco.getContainerPowercap(a), 3.0);
    // Its slot goes to a new container that takes a cap of its own;
    // both ids answer with their own cap.
    const cop::ContainerId b = *rig.cluster.createContainer("a", 1.0);
    rig.eco.setContainerPowercap(b, 5.0);
    EXPECT_EQ(rig.eco.getContainerPowercap(a), 3.0);
    EXPECT_EQ(rig.eco.getContainerPowercap(b), 5.0);
    EXPECT_EQ(rig.eco.captureState().powercaps,
              (std::vector<std::pair<cop::ContainerId, double>>{
                  {a, 3.0}, {keep, 4.0}, {b, 5.0}}));
    // Never-created and never-capped ids read as uncapped.
    EXPECT_EQ(rig.eco.getContainerPowercap(cop::ContainerId{999}),
              kUnlimitedW);
    EXPECT_EQ(rig.eco.getContainerPowercap(cop::ContainerId{-4}),
              kUnlimitedW);

    rig.eco.settleTick(60, 60);
    EXPECT_EQ(rig.eco.getContainerPowercap(a), kUnlimitedW);
    EXPECT_EQ(rig.eco.getContainerPowercap(b), 5.0);
    EXPECT_EQ(rig.eco.getContainerPowercap(keep), 4.0);
    EXPECT_EQ(rig.eco.captureState().powercaps,
              (std::vector<std::pair<cop::ContainerId, double>>{
                  {keep, 4.0}, {b, 5.0}}));
}

TEST(PowercapTable, CapBatchIsAllOrNothingUnderChurn)
{
    testutil::Rig rig;
    rig.eco.tryAddApp("a", AppShareConfig{}).value();
    const cop::ContainerId a = *rig.cluster.createContainer("a", 1.0);
    const cop::ContainerId b = *rig.cluster.createContainer("a", 1.0);
    const ContainerHandle ha = handle(rig.cluster, a);
    const ContainerHandle hb = handle(rig.cluster, b);
    rig.cluster.destroyContainer(b);
    const cop::ContainerId c = *rig.cluster.createContainer("a", 1.0);

    // A stale handle anywhere in the batch rejects all of it — also
    // when its slot is live again under another container.
    api::CapBatch stale;
    stale.add(ha, 2.0);
    stale.add(hb, 2.0);
    EXPECT_EQ(rig.eco.applyCapBatch(stale).code(),
              api::ErrorCode::UnknownContainer);
    api::CapBatch negative;
    negative.add(ha, 2.0);
    negative.add(handle(rig.cluster, c), -1.0);
    EXPECT_EQ(rig.eco.applyCapBatch(negative).code(),
              api::ErrorCode::InvalidArgument);
    api::CapBatch nan;
    nan.add(ha, std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(rig.eco.applyCapBatch(nan).code(),
              api::ErrorCode::InvalidArgument);
    EXPECT_EQ(rig.eco.pendingCapCount(), 0u);
    rig.eco.settleTick(0, 60);
    EXPECT_TRUE(rig.eco.captureState().powercaps.empty());
    EXPECT_EQ(rig.cluster.container(a).util_cap, 1.0);

    // A good batch commits at settlement, in order: the later entry
    // for a container wins, and kUnlimitedW lifts a cap.
    api::CapBatch good;
    good.add(ha, 2.0);
    good.add(handle(rig.cluster, c), 3.0);
    good.add(ha, 2.5);
    ASSERT_TRUE(rig.eco.applyCapBatch(good).ok());
    EXPECT_EQ(rig.eco.pendingCapCount(), 3u);
    EXPECT_EQ(rig.eco.getContainerPowercap(a), kUnlimitedW);
    rig.eco.settleTick(60, 60);
    EXPECT_EQ(rig.eco.getContainerPowercap(a), 2.5);
    EXPECT_EQ(rig.eco.getContainerPowercap(c), 3.0);
    api::CapBatch lift;
    lift.add(ha, kUnlimitedW);
    ASSERT_TRUE(rig.eco.applyCapBatch(lift).ok());
    rig.eco.settleTick(120, 60);
    EXPECT_EQ(rig.eco.getContainerPowercap(a), kUnlimitedW);
    EXPECT_EQ(rig.cluster.container(a).util_cap, 1.0);
    EXPECT_EQ(rig.eco.captureState().powercaps,
              (std::vector<std::pair<cop::ContainerId, double>>{
                  {c, 3.0}}));
}

/**
 * The id-keyed reference: the caps on the books, the staged batches,
 * and the rules that settle them (commit staged entries of live
 * containers in order, then prune dead ids).
 */
struct CapModel
{
    std::map<cop::ContainerId, double> caps;
    std::vector<std::pair<ContainerHandle, double>> staged;

    void
    set(cop::ContainerId id, double cap)
    {
        if (std::isinf(cap))
            caps.erase(id);
        else
            caps[id] = cap;
    }

    void
    settle(const cop::Cluster &cluster)
    {
        for (const auto &[h, cap] : staged)
            if (const cop::Container *c = cluster.find(h.ref()))
                set(c->id, cap);
        staged.clear();
        for (auto it = caps.begin(); it != caps.end();)
            it = cluster.exists(it->first) ? std::next(it)
                                           : caps.erase(it);
    }

    double
    get(cop::ContainerId id) const
    {
        auto it = caps.find(id);
        return it == caps.end() ? kUnlimitedW : it->second;
    }

    std::vector<std::pair<cop::ContainerId, double>>
    list() const
    {
        return {caps.begin(), caps.end()};
    }
};

/** Every id ever created answers the v1 getter as the model does. */
void
expectGettersMatch(const Ecovisor &eco, const cop::Cluster &cluster,
                   const CapModel &model, cop::ContainerId max_id)
{
    for (cop::ContainerId id = 1; id <= max_id; ++id) {
        ASSERT_EQ(eco.getContainerPowercap(id), model.get(id))
            << "id " << id;
        if (cluster.exists(id))
            ASSERT_EQ(eco.getContainerPowercap(handle(cluster, id)).value(),
                      model.get(id))
                << "id " << id;
    }
}

TEST(PowercapTable, CaptureMatchesAnIdKeyedModelThroughChurn)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE(seed);
        testutil::Rig rig;
        rig.eco.tryAddApp("a", AppShareConfig{}).value();
        rig.eco.tryAddApp("b", AppShareConfig{}).value();
        Rng rng(seed);
        CapModel model;
        std::vector<cop::ContainerId> live;
        std::vector<ContainerHandle> seen; // every handle ever made
        cop::ContainerId max_id = 0;
        TimeS t = 0;
        auto pickLive = [&]() -> cop::ContainerId {
            return live[static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(live.size()) - 1))];
        };
        auto randomCap = [&]() -> double {
            const double u = rng.uniform(0.0, 1.0);
            if (u < 0.15)
                return kUnlimitedW;
            if (u < 0.2)
                return 0.0;
            return rng.uniform(0.5, 6.0);
        };
        for (int step = 0; step < 600; ++step) {
            const int op = static_cast<int>(rng.uniformInt(0, 9));
            if (op <= 1 || live.empty()) {
                auto id = rig.cluster.createContainer(
                    rng.uniformInt(0, 1) ? "a" : "b",
                    rng.uniform(0.25, 2.0));
                if (id) {
                    live.push_back(*id);
                    seen.push_back(handle(rig.cluster, *id));
                    max_id = std::max(max_id, *id);
                }
            } else if (op == 2) {
                const cop::ContainerId id = pickLive();
                rig.cluster.destroyContainer(id);
                live.erase(std::find(live.begin(), live.end(), id));
            } else if (op == 3 || op == 4) {
                // v2 immediate set; a stale handle must change nothing.
                const ContainerHandle h =
                    seen[static_cast<std::size_t>(rng.uniformInt(
                        0, static_cast<std::int64_t>(seen.size()) - 1))];
                const double cap = randomCap();
                const cop::Container *c = rig.cluster.find(h.ref());
                const api::Status st = rig.eco.setContainerPowercap(h, cap);
                ASSERT_EQ(st.ok(), c != nullptr);
                if (c)
                    model.set(c->id, cap);
            } else if (op == 5) {
                const cop::ContainerId id = pickLive();
                const double cap = randomCap();
                rig.eco.setContainerPowercap(id, cap);
                model.set(id, cap);
            } else if (op == 6) {
                api::CapBatch batch;
                bool bad = false;
                const int n = static_cast<int>(rng.uniformInt(1, 4));
                for (int i = 0; i < n; ++i) {
                    const ContainerHandle h =
                        seen[static_cast<std::size_t>(rng.uniformInt(
                            0,
                            static_cast<std::int64_t>(seen.size()) - 1))];
                    double cap = randomCap();
                    if (rng.uniformInt(0, 19) == 0)
                        cap = -1.0;
                    bad |= !rig.cluster.find(h.ref()) || cap < 0.0;
                    batch.add(h, cap);
                }
                const std::size_t before = rig.eco.pendingCapCount();
                ASSERT_EQ(rig.eco.applyCapBatch(batch).ok(), !bad);
                if (bad) {
                    ASSERT_EQ(rig.eco.pendingCapCount(), before);
                } else {
                    for (const auto &req : batch.requests())
                        model.staged.emplace_back(req.container, req.cap_w);
                }
            } else {
                rig.eco.settleTick(t, 60);
                t += 60;
                model.settle(rig.cluster);
                for (cop::ContainerId id : live) {
                    const double want =
                        model.caps.count(id)
                            ? rig.cluster.utilizationCapForPower(
                                  id, model.get(id))
                            : 1.0;
                    ASSERT_EQ(rig.cluster.container(id).util_cap, want)
                        << "id " << id;
                }
            }
            ASSERT_NO_FATAL_FAILURE(
                expectGettersMatch(rig.eco, rig.cluster, model, max_id));
            if (rig.eco.pendingCapCount() == 0)
                ASSERT_EQ(rig.eco.captureState().powercaps, model.list())
                    << "step " << step;

            // Now and then, restore the state into a fresh world: the
            // restored caps (dead-but-unpruned ones included) answer
            // and settle exactly as the originals.
            if (step % 97 == 50 && rig.eco.pendingCapCount() == 0) {
                testutil::Rig copy;
                copy.cluster.restoreState(rig.cluster.captureState());
                copy.eco.restoreState(rig.eco.captureState());
                ASSERT_EQ(copy.eco.captureState().powercaps, model.list());
                ASSERT_NO_FATAL_FAILURE(expectGettersMatch(
                    copy.eco, copy.cluster, model, max_id));
                CapModel settled = model;
                copy.eco.settleTick(t, 60);
                settled.settle(copy.cluster);
                ASSERT_EQ(copy.eco.captureState().powercaps,
                          settled.list());
                // A container created after the restore takes a slot
                // that may have held a cap; it starts uncapped.
                if (auto id = copy.cluster.createContainer("a", 0.25)) {
                    ASSERT_EQ(copy.eco.getContainerPowercap(*id),
                              kUnlimitedW);
                    ASSERT_EQ(copy.cluster.container(*id).util_cap, 1.0);
                }
            }
        }
    }
}

} // namespace
} // namespace ecov::core
