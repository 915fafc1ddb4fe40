/**
 * @file
 * Parallel-engine unit tests at the sim layer: partition execution,
 * deterministic mailbox merge order, conservative epoch windows,
 * thread-count invariance of the schedule, execution-context binding
 * and Simulation delegation. These run threads>1 paths and are part
 * of the ThreadSanitizer CI job.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/parallel_engine.hh"
#include "sim/partition.hh"
#include "sim/sim_object.hh"
#include "sim/simulation.hh"

using namespace qpip;
using sim::Tick;

TEST(Partition, OwnsPrivateQueueAndRng)
{
    sim::Simulation simu(9);
    sim::ParallelEngine eng(simu, 1);
    auto &a = eng.addPartition("a");
    auto &b = eng.addPartition("b");
    EXPECT_NE(&a.eventQueue(), &b.eventQueue());
    EXPECT_NE(&a.rng(), &b.rng());
    EXPECT_NE(&a.eventQueue(), &simu.eventQueue());
    // Distinct deterministic streams.
    EXPECT_NE(a.rng().next(), b.rng().next());
    EXPECT_EQ(a.eventQueue().label(), "a");
    EXPECT_EQ(eng.findPartition("b"), &b);
    EXPECT_EQ(eng.findPartition("zzz"), nullptr);
}

TEST(ParallelEngine, RunsPartitionEventsToCompletion)
{
    sim::Simulation simu(1);
    sim::ParallelEngine eng(simu, 2);
    auto &a = eng.addPartition("a");
    auto &b = eng.addPartition("b");
    int ran_a = 0;
    int ran_b = 0;
    a.eventQueue().schedule(10, [&] { ++ran_a; });
    a.eventQueue().schedule(20, [&] { ++ran_a; });
    b.eventQueue().schedule(15, [&] { ++ran_b; });
    const auto n = eng.run();
    EXPECT_EQ(n, 3u);
    EXPECT_EQ(ran_a, 2);
    EXPECT_EQ(ran_b, 1);
    EXPECT_EQ(eng.executed(), 3u);
}

TEST(ParallelEngine, RunUntilStopsAndAlignsClocks)
{
    sim::Simulation simu(1);
    sim::ParallelEngine eng(simu, 2);
    auto &a = eng.addPartition("a");
    auto &b = eng.addPartition("b");
    eng.setLookahead(10);
    int ran = 0;
    a.eventQueue().schedule(5, [&] { ++ran; });
    a.eventQueue().schedule(100, [&] { ++ran; });
    eng.runUntil(50);
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(eng.now(), 50u);
    // Idle partitions advance to the stop tick too.
    EXPECT_EQ(a.eventQueue().now(), 50u);
    EXPECT_EQ(b.eventQueue().now(), 50u);
    eng.run();
    EXPECT_EQ(ran, 2);
}

TEST(ParallelEngine, MailboxMergeOrderIsDeterministic)
{
    sim::Simulation simu(1);
    sim::ParallelEngine eng(simu, 2);
    auto &a = eng.addPartition("a");
    auto &b = eng.addPartition("b");
    auto &c = eng.addPartition("c");
    auto &ac = eng.mailbox(a, c);
    auto &bc = eng.mailbox(b, c);
    eng.setLookahead(50);

    // Only partition c's events touch `order`.
    std::vector<std::string> order;
    a.eventQueue().schedule(0, [&] {
        ac.post(100, 1, [&order] { order.push_back("a.p1"); });
        ac.post(100, 0, [&order] { order.push_back("a.p0"); });
        ac.post(60, 0, [&order] { order.push_back("a.early"); });
    });
    b.eventQueue().schedule(0, [&] {
        bc.post(100, 1, [&order] { order.push_back("b.p1"); });
        bc.post(60, 0, [&order] { order.push_back("b.early"); });
    });
    eng.run();

    // (tick, priority, seq, srcId): ties on tick+priority fall back
    // to the per-source post sequence, then the source partition id.
    // At tick 60, a.early is a's third post (seq 2) while b.early is
    // b's second (seq 1), so b goes first; a.p1 and b.p1 are both
    // seq 0 in their streams, so partition a (id 0) breaks that tie.
    const std::vector<std::string> expect = {
        "b.early", "a.early", "a.p0", "a.p1", "b.p1"};
    EXPECT_EQ(order, expect);
}

namespace {

constexpr std::uint32_t ringSize = 5;

/** "p<i>", built by appending (GCC 12 -Wrestrict misfires on "p" + s). */
std::string
partName(std::size_t i)
{
    std::string name = "p";
    name += std::to_string(i);
    return name;
}

/** Artifacts of one ring run; must not depend on thread count. */
struct RingDigest
{
    /** (tick, token) per hop, one list per partition. */
    std::vector<std::vector<std::pair<Tick, int>>> hits;
    /** One RNG draw per hop, one list per partition. */
    std::vector<std::vector<std::uint64_t>> draws;
    std::uint64_t executed = 0;
    std::uint64_t epochs = 0;
    Tick end = 0;

    bool
    operator==(const RingDigest &o) const
    {
        return hits == o.hits && draws == o.draws &&
               executed == o.executed && epochs == o.epochs &&
               end == o.end;
    }
};

/**
 * Five partitions in a ring pass two tokens around for a fixed number
 * of hops each, so several partitions run in one epoch and the ring
 * divides unevenly among most thread counts. Each hop records
 * (tick, token) and one RNG draw in the partition it runs in.
 */
RingDigest
runRing(int threads)
{
    sim::Simulation simu(42);
    sim::ParallelEngine eng(simu, threads);
    std::vector<sim::Partition *> parts;
    for (std::uint32_t i = 0; i < ringSize; ++i)
        parts.push_back(&eng.addPartition(partName(i)));
    std::vector<sim::Mailbox *> next;
    for (std::uint32_t i = 0; i < ringSize; ++i)
        next.push_back(&eng.mailbox(*parts[i], *parts[(i + 1) % ringSize]));
    eng.setLookahead(100);

    RingDigest d;
    d.hits.resize(ringSize);
    d.draws.resize(ringSize);
    // Each token's hop count is touched only by the partition holding
    // the token; the mailbox handoffs order the hops.
    std::vector<int> remaining = {16, 11};
    std::function<void(std::uint32_t, int)> hop = [&](std::uint32_t at,
                                                      int token) {
        sim::Partition &self = *parts[at];
        const Tick now = self.eventQueue().now();
        d.hits[at].emplace_back(now, token);
        const std::uint64_t draw = self.rng().next();
        d.draws[at].push_back(draw);
        if (--remaining[static_cast<std::size_t>(token)] > 0) {
            next[at]->post(now + 100 + draw % 50, 0,
                           [&hop, at, token] {
                               hop((at + 1) % ringSize, token);
                           });
        }
    };
    parts[0]->eventQueue().schedule(0, [&] { hop(0, 0); });
    parts[2]->eventQueue().schedule(30, [&] { hop(2, 1); });
    eng.run();
    d.executed = eng.executed();
    d.epochs = eng.epochs();
    d.end = eng.now();
    return d;
}

} // namespace

TEST(ParallelEngine, ScheduleIsThreadCountInvariant)
{
    const auto serial = runRing(1);
    std::size_t hits = 0;
    for (const auto &h : serial.hits)
        hits += h.size();
    EXPECT_EQ(hits, 27u);
    // 2 and 3 workers own unequal shares of the five partitions; 8
    // leaves workers with nothing to own.
    for (const int threads : {2, 3, 8})
        EXPECT_TRUE(serial == runRing(threads)) << threads;
    // And replays bit-identically at the same thread count.
    EXPECT_TRUE(runRing(3) == runRing(3));
}

TEST(ParallelEngine, LastEpochMailWaitsForNextRun)
{
    sim::Simulation simu(17);
    sim::ParallelEngine eng(simu, 2);
    auto &a = eng.addPartition("a");
    auto &b = eng.addPartition("b");
    auto &ab = eng.mailbox(a, b);
    ab.setLookahead(100);
    // Written only by partition b's events.
    std::vector<std::string> order;
    // Written by a's event; read by the predicate at the barrier.
    bool sent = false;
    a.eventQueue().schedule(0, [&] {
        ab.post(100, 0, [&] { order.push_back("mail0"); });
        ab.post(100, 0, [&] { order.push_back("mail1"); });
        sent = true;
    });
    // The call returns at the barrier after a's epoch, before the
    // batch is handed to b.
    EXPECT_TRUE(eng.runUntilCondition([&] { return sent; }));
    EXPECT_EQ(simu.stats().counterValue("parallel.mailboxPosts"), 0u);
    EXPECT_EQ(simu.stats().counterValue("parallel.batchedPosts"), 0u);
    EXPECT_TRUE(order.empty());
    // b's clock reached its last bound (H_b = B_a + 100), so the
    // harness may still schedule on the mail's tick.
    EXPECT_EQ(b.eventQueue().now(), 100u);
    b.eventQueue().schedule(100, [&] { order.push_back("harness"); });
    eng.run();
    // Leftover mail is injected when the next run starts, after the
    // harness event took its place on tick 100.
    const std::vector<std::string> expect = {"harness", "mail0",
                                             "mail1"};
    EXPECT_EQ(order, expect);
    // Posts count in the call that injects them.
    EXPECT_EQ(simu.stats().counterValue("parallel.mailboxPosts"), 2u);
    EXPECT_EQ(simu.stats().counterValue("parallel.batchedPosts"), 2u);
}

TEST(ParallelEngine, RunAfterParkVisitsEveryWorkersPartitions)
{
    sim::Simulation simu(19);
    sim::ParallelEngine eng(simu, 3);
    std::vector<sim::Partition *> parts;
    for (std::size_t i = 0; i < 4; ++i)
        parts.push_back(&eng.addPartition(partName(i)));
    // Mail crosses owners too: p1 (worker 1) posts to p2 (worker 2).
    auto &mb = eng.mailbox(*parts[1], *parts[2]);
    eng.setLookahead(10);
    std::vector<int> ran(parts.size(), 0);
    int mail = 0;
    for (std::size_t i = 0; i < parts.size(); ++i)
        parts[i]->eventQueue().schedule(5, [&ran, i] { ++ran[i]; });
    parts[1]->eventQueue().schedule(6, [&] {
        mb.post(20, 0, [&] { ++mail; });
    });
    // Joined pool: the calling thread must visit all three workers'
    // lists, not just its own.
    eng.park();
    eng.run();
    EXPECT_EQ(ran, std::vector<int>(parts.size(), 1));
    EXPECT_EQ(mail, 1);
    EXPECT_EQ(eng.executed(), 6u);
}

TEST(ParallelEngine, RunUntilConditionChecksAtBarriers)
{
    sim::Simulation simu(3);
    sim::ParallelEngine eng(simu, 2);
    auto &a = eng.addPartition("a");
    auto &b = eng.addPartition("b");
    // Mutual edges bound a's horizon: under per-edge horizons a
    // partition with no incoming edges runs clean to the deadline in
    // one epoch. L=5 both ways makes H_a = next_a + 10, so with events
    // spaced 10 apart each epoch executes exactly one.
    eng.mailbox(a, b);
    eng.mailbox(b, a);
    eng.setLookahead(5);
    int count = 0;
    for (Tick t = 0; t < 100; t += 10)
        a.eventQueue().schedule(t, [&] { ++count; });
    // Delegation: Simulation::runUntilCondition routes to the engine.
    ASSERT_NE(simu.parallelEngine(), nullptr);
    const bool ok =
        simu.runUntilCondition([&] { return count >= 3; }, 1000);
    EXPECT_TRUE(ok);
    // The predicate fires at the barrier after the third event.
    EXPECT_EQ(count, 3);
    EXPECT_EQ(simu.now(), eng.now());
}

TEST(ParallelEngine, PerEdgeHorizonsDecoupleSlowEdges)
{
    sim::Simulation simu(7);
    sim::ParallelEngine eng(simu, 2);
    auto &fa = eng.addPartition("fa");
    auto &fb = eng.addPartition("fb");
    auto &sa = eng.addPartition("sa");
    auto &sb = eng.addPartition("sb");
    // Two disjoint pairs: the fast pair's edges declare a wide
    // lookahead, the slow pair's a narrow one.
    eng.mailbox(fa, fb).setLookahead(1000);
    eng.mailbox(fb, fa).setLookahead(1000);
    eng.mailbox(sa, sb).setLookahead(10);
    eng.mailbox(sb, sa).setLookahead(10);
    int fast = 0;
    int slow = 0;
    for (Tick t = 0; t < 100; t += 10) {
        fa.eventQueue().schedule(t, [&] { ++fast; });
        sa.eventQueue().schedule(t, [&] { ++slow; });
    }
    eng.run();
    EXPECT_EQ(fast, 10);
    EXPECT_EQ(slow, 10);
    // The slow pair paces the epoch count at H_sa = next_sa + 20
    // (two events per epoch), but the fast pair drains entirely in
    // the first epoch instead of being throttled to the global
    // minimum lookahead: 5 epochs total, not 10.
    EXPECT_EQ(eng.epochs(), 5u);
}

TEST(ParallelEngine, HorizonFloorsPropagateThroughStalledChains)
{
    sim::Simulation simu(11);
    sim::ParallelEngine eng(simu, 2);
    auto &a = eng.addPartition("a");
    auto &b = eng.addPartition("b");
    auto &c = eng.addPartition("c");
    // Per-edge lookaheads only — no engine-global fallback needed.
    auto &ab = eng.mailbox(a, b);
    auto &bc = eng.mailbox(b, c);
    ab.setLookahead(10);
    bc.setLookahead(10);

    // b starts empty and wakes only when a's post arrives, then
    // forwards into c below c's far-future local event. c's horizon
    // must be bounded by b's *floor* (B_a + 10), not b's next-event
    // tick (infinity): otherwise c runs its tick-1000 event in the
    // first epoch and the tick-20 delivery violates its horizon.
    std::vector<Tick> cOrder; // written only by partition c
    a.eventQueue().schedule(0, [&] {
        ab.post(10, 0, [&] {
            bc.post(20, 0,
                    [&] { cOrder.push_back(c.eventQueue().now()); });
        });
    });
    c.eventQueue().schedule(1000,
                            [&] { cOrder.push_back(c.eventQueue().now()); });
    eng.run();
    const std::vector<Tick> expect = {20, 1000};
    EXPECT_EQ(cOrder, expect);
    EXPECT_EQ(eng.executed(), 4u);
}

TEST(ParallelEngine, TightestIncomingEdgeBoundsHorizon)
{
    sim::Simulation simu(13);
    sim::ParallelEngine eng(simu, 2);
    auto &a = eng.addPartition("a");
    auto &b = eng.addPartition("b");
    auto &c = eng.addPartition("c");
    // c has two incoming edges: a wide one from a and a tight one
    // from b (whose own floor tracks c through the return edge). The
    // tight edge must win: H_c = next_c + 4.
    eng.mailbox(a, c).setLookahead(1000);
    eng.mailbox(b, c).setLookahead(2);
    eng.mailbox(c, b).setLookahead(2);
    int count = 0;
    a.eventQueue().schedule(0, [] {});
    for (Tick t = 0; t < 100; t += 10)
        c.eventQueue().schedule(t, [&] { ++count; });
    eng.run();
    EXPECT_EQ(count, 10);
    // One event per epoch; had the wide edge bounded the horizon, all
    // ten would have drained in the first.
    EXPECT_EQ(eng.epochs(), 10u);
}

TEST(ParallelEngine, RegistersParallelStats)
{
    sim::Simulation simu(1);
    {
        sim::ParallelEngine eng(simu, 2);
        auto &a = eng.addPartition("a");
        auto &b = eng.addPartition("b");
        auto &ab = eng.mailbox(a, b);
        eng.setLookahead(10);
        for (const char *leaf :
             {"parallel.epochs", "parallel.mailboxPosts",
              "parallel.batchedPosts", "parallel.horizonStalls",
              "parallel.epochEventsMax", "parallel.epochEventsMin"})
            EXPECT_TRUE(simu.stats().contains(leaf)) << leaf;
        int got = 0;
        a.eventQueue().schedule(0, [&] {
            ab.post(10, 0, [&] { ++got; });
            ab.post(11, 0, [&] { ++got; });
        });
        eng.run();
        EXPECT_EQ(got, 2);
        EXPECT_EQ(simu.stats().counterValue("parallel.epochs"),
                  eng.epochs());
        EXPECT_EQ(simu.stats().counterValue("parallel.mailboxPosts"),
                  2u);
        // Both posts travelled in one batch.
        EXPECT_EQ(simu.stats().counterValue("parallel.batchedPosts"),
                  2u);
    }
    // The stat group unregisters with the engine.
    EXPECT_FALSE(simu.stats().contains("parallel.epochs"));
}

TEST(ParallelEngine, SimulationDelegatesRunCalls)
{
    sim::Simulation simu(5);
    {
        sim::ParallelEngine eng(simu, 2);
        auto &a = eng.addPartition("a");
        int ran = 0;
        a.eventQueue().schedule(7, [&] { ++ran; });
        EXPECT_EQ(simu.run(), 1u);
        EXPECT_EQ(ran, 1);
    }
    // Engine uninstalls on destruction: serial path again.
    EXPECT_EQ(simu.parallelEngine(), nullptr);
    int ran2 = 0;
    simu.eventQueue().schedule(simu.eventQueue().now() + 1,
                               [&] { ++ran2; });
    EXPECT_EQ(simu.run(), 1u);
    EXPECT_EQ(ran2, 1);
}

TEST(ParallelEngine, ExecContextBindsNewSimObjects)
{
    sim::Simulation simu(1);
    sim::ParallelEngine eng(simu, 1);
    auto &a = eng.addPartition("a");
    {
        sim::ExecContextScope scope(&a.execContext());
        sim::SimObject obj(simu, "inCtx");
        EXPECT_EQ(&obj.eventQueue(), &a.eventQueue());
        EXPECT_EQ(&obj.rng(), &a.rng());
    }
    sim::SimObject out(simu, "outCtx");
    EXPECT_EQ(&out.eventQueue(), &simu.eventQueue());
    EXPECT_EQ(&out.rng(), &simu.rng());
}

TEST(ParallelEngine, AssignByPrefixRebindsMatchingObjects)
{
    sim::Simulation simu(1);
    sim::SimObject host(simu, "host0");
    sim::SimObject nic(simu, "host0.nic");
    sim::SimObject other(simu, "host01"); // prefix but no dot: no match
    sim::ParallelEngine eng(simu, 1);
    auto &p = eng.addPartition("host0");
    eng.assignByPrefix("host0", p);
    EXPECT_EQ(&host.eventQueue(), &p.eventQueue());
    EXPECT_EQ(&nic.eventQueue(), &p.eventQueue());
    EXPECT_EQ(&other.eventQueue(), &simu.eventQueue());
}

TEST(ParallelEngine, ClearAllDropsPendingWork)
{
    sim::Simulation simu(1);
    sim::ParallelEngine eng(simu, 2);
    auto &a = eng.addPartition("a");
    int ran = 0;
    a.eventQueue().schedule(10, [&] { ++ran; });
    eng.clearAll();
    EXPECT_EQ(eng.run(), 0u);
    EXPECT_EQ(ran, 0);
}
