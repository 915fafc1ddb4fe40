/**
 * @file
 * Parallel-engine unit tests at the sim layer: partition execution,
 * keyed mailbox order, conservative epoch windows, thread-count
 * invariance of the schedule, per-edge lookaheads, typed mail (a
 * posted closure is moved, never copied, and destroyed once), the
 * one-partition engine every Simulation starts with, the refusal to
 * add event sources or read Simulation::now() while a partition
 * executes, and Simulation delegation. These run threads>1 paths and
 * are part of the ThreadSanitizer CI job.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/parallel_engine.hh"
#include "sim/partition.hh"
#include "sim/random.hh"
#include "sim/sim_object.hh"
#include "sim/simulation.hh"

using namespace qpip;
using sim::Tick;

namespace {

/** @p simu's engine, set to @p threads workers. */
sim::ParallelEngine &
engineOf(sim::Simulation &simu, int threads)
{
    sim::ParallelEngine &eng = simu.engine();
    eng.setThreads(threads);
    return eng;
}

} // namespace

TEST(Partition, OwnsPrivateQueue)
{
    sim::Simulation simu(9);
    sim::ParallelEngine &eng = engineOf(simu, 1);
    auto &a = eng.addPartition("a");
    auto &b = eng.addPartition("b");
    EXPECT_NE(&a.eventQueue(), &b.eventQueue());
    EXPECT_NE(&a.eventQueue(), &simu.eventQueue());
    EXPECT_EQ(a.eventQueue().label(), "a");
    EXPECT_EQ(eng.findPartition("b"), &b);
    EXPECT_EQ(eng.findPartition("zzz"), nullptr);
}

TEST(ParallelEngine, RunsPartitionEventsToCompletion)
{
    sim::Simulation simu(1);
    sim::EventSource harness = simu.addSource();
    sim::ParallelEngine &eng = engineOf(simu, 2);
    auto &a = eng.addPartition("a");
    auto &b = eng.addPartition("b");
    int ran_a = 0;
    int ran_b = 0;
    a.eventQueue().schedule(harness.key(10), [&] { ++ran_a; });
    a.eventQueue().schedule(harness.key(20), [&] { ++ran_a; });
    b.eventQueue().schedule(harness.key(15), [&] { ++ran_b; });
    const auto n = eng.run();
    EXPECT_EQ(n, 3u);
    EXPECT_EQ(ran_a, 2);
    EXPECT_EQ(ran_b, 1);
    EXPECT_EQ(eng.executed(), 3u);
}

TEST(ParallelEngine, RunUntilStopsAndAlignsClocks)
{
    sim::Simulation simu(1);
    sim::EventSource harness = simu.addSource();
    sim::ParallelEngine &eng = engineOf(simu, 2);
    auto &a = eng.addPartition("a");
    auto &b = eng.addPartition("b");
    int ran = 0;
    a.eventQueue().schedule(harness.key(5), [&] { ++ran; });
    a.eventQueue().schedule(harness.key(100), [&] { ++ran; });
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
    sim::ParallelEngine &eng = engineOf(simu, 2);
    auto &a = eng.addPartition("a");
    auto &b = eng.addPartition("b");
    auto &c = eng.addPartition("c");
    auto &ac = eng.mailbox(a, c, 50);
    auto &bc = eng.mailbox(b, c, 50);
    // One source per posting partition; b's is added first, so it has
    // the lower id.
    sim::EventSource srcB = simu.addSource();
    sim::EventSource srcA = simu.addSource();
    sim::EventSource harness = simu.addSource();

    // Only partition c's events touch `order`.
    std::vector<std::string> order;
    a.eventQueue().schedule(harness.key(0), [&] {
        ac.post(srcA.key(100, 1), [&order] { order.push_back("a.p1"); });
        ac.post(srcA.key(100, 0), [&order] { order.push_back("a.p0"); });
        ac.post(srcA.key(60), [&order] { order.push_back("a.early"); });
        ac.post(srcA.key(100, 1), [&order] { order.push_back("a.p1b"); });
    });
    b.eventQueue().schedule(harness.key(0), [&] {
        bc.post(srcB.key(100, 1), [&order] { order.push_back("b.p1"); });
        bc.post(srcB.key(60), [&order] { order.push_back("b.early"); });
    });
    eng.run();

    // (tick, priority, source, seq): ties on tick and priority fall
    // to the lower source id (b's), then to the source's own count.
    const std::vector<std::string> expect = {
        "b.early", "a.early", "a.p0", "b.p1", "a.p1", "a.p1b"};
    EXPECT_EQ(order, expect);
}

namespace {

/**
 * Partitions a and b mail partition c, which also runs events of its
 * own, all on ticks 100 and 120. Every key is fixed up front; only
 * the order the posts are made in, and which epoch makes them,
 * depends on @p reversed. @return the order c runs them in.
 */
std::vector<std::string>
runKeyedPosts(bool reversed)
{
    sim::Simulation simu(1);
    sim::ParallelEngine &eng = engineOf(simu, 2);
    auto &a = eng.addPartition("a");
    auto &b = eng.addPartition("b");
    auto &c = eng.addPartition("c");
    auto &ac = eng.mailbox(a, c, 50);
    auto &bc = eng.mailbox(b, c, 50);

    struct Post
    {
        sim::EventKey key;
        std::string name;
    };
    // Sources 1 and 3 key c's own events.
    const std::vector<Post> posts = {
        {{100, 0, 2, 0}, "s2.0"}, {{100, 0, 2, 1}, "s2.1"},
        {{100, 0, 4, 0}, "s4.0"}, {{100, -1, 5, 0}, "s5.0"},
        {{120, 0, 2, 2}, "s2.2"}, {{100, 0, 4, 1}, "s4.1"},
    };
    std::vector<std::string> order; // written only by c's events
    // Posts [from, to) of the list, or of the reversed list, through
    // @p mb.
    const auto postAll = [&](sim::Mailbox &mb, std::size_t from,
                             std::size_t to) {
        for (std::size_t k = from; k < to; ++k) {
            const Post &p = posts[reversed ? posts.size() - 1 - k : k];
            mb.post(p.key, [&order, name = p.name] {
                order.push_back(name);
            });
        }
    };
    // Forward, a posts the first three and b the rest, both at tick 0;
    // reversed, each posts the other's keys in the opposite order, b
    // at tick 10, so a source's posts split over two mailboxes. Source
    // 6 keys the events that post.
    sim::EventSource harness(6);
    a.eventQueue().schedule(harness.key(0), [&] { postAll(ac, 0, 3); });
    b.eventQueue().schedule(harness.key(reversed ? 10 : 0),
                            [&] { postAll(bc, 3, 6); });
    c.eventQueue().schedule(sim::EventKey{100, 0, 3, 0},
                            [&] { order.push_back("s3.0"); });
    c.eventQueue().schedule(sim::EventKey{100, 0, 1, 0},
                            [&] { order.push_back("s1.0"); });
    eng.run();
    return order;
}

} // namespace

TEST(ParallelEngine, KeyedMailRunsInKeyOrderHoweverPostsInterleave)
{
    const std::vector<std::string> expect = {
        "s5.0", "s1.0", "s2.0", "s2.1", "s3.0", "s4.0", "s4.1", "s2.2"};
    EXPECT_EQ(runKeyedPosts(false), expect);
    EXPECT_EQ(runKeyedPosts(true), expect);
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
    /** One stream draw per hop, one list per partition. */
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
 * (tick, token) and one draw from its token's own stream — streams
 * the test owns, as a simulated object would — and waits a
 * draw-dependent delay before the next hop.
 */
RingDigest
runRing(int threads)
{
    sim::Simulation simu(42);
    sim::ParallelEngine &eng = engineOf(simu, threads);
    std::vector<sim::Partition *> parts;
    for (std::uint32_t i = 0; i < ringSize; ++i)
        parts.push_back(&eng.addPartition(partName(i)));
    std::vector<sim::Mailbox *> next;
    // Each partition keys its posts by its own source.
    std::vector<sim::EventSource> srcs;
    for (std::uint32_t i = 0; i < ringSize; ++i) {
        next.push_back(
            &eng.mailbox(*parts[i], *parts[(i + 1) % ringSize], 100));
        srcs.push_back(simu.addSource());
    }
    sim::EventSource harness = simu.addSource();

    RingDigest d;
    d.hits.resize(ringSize);
    d.draws.resize(ringSize);
    // Each token's hop count and stream are touched only by the
    // partition holding the token; the mailbox handoffs order the hops.
    std::vector<int> remaining = {16, 11};
    std::vector<sim::Random> streams = {
        sim::Random(sim::streamSeed(simu.seed(), "token0")),
        sim::Random(sim::streamSeed(simu.seed(), "token1"))};
    std::function<void(std::uint32_t, int)> hop = [&](std::uint32_t at,
                                                      int token) {
        sim::Partition &self = *parts[at];
        const Tick now = self.eventQueue().now();
        d.hits[at].emplace_back(now, token);
        const std::uint64_t draw =
            streams[static_cast<std::size_t>(token)].next();
        d.draws[at].push_back(draw);
        if (--remaining[static_cast<std::size_t>(token)] > 0) {
            next[at]->post(srcs[at].key(now + 100 + draw % 50),
                           [&hop, at, token] {
                               hop((at + 1) % ringSize, token);
                           });
        }
    };
    parts[0]->eventQueue().schedule(harness.key(0), [&] { hop(0, 0); });
    parts[2]->eventQueue().schedule(harness.key(30), [&] { hop(2, 1); });
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
    sim::ParallelEngine &eng = engineOf(simu, 2);
    auto &a = eng.addPartition("a");
    auto &b = eng.addPartition("b");
    auto &ab = eng.mailbox(a, b, 100);
    sim::EventSource mailer = simu.addSource();
    sim::EventSource harness = simu.addSource();
    // Written only by partition b's events.
    std::vector<std::string> order;
    // Written by a's event; read by the predicate at the barrier.
    bool sent = false;
    a.eventQueue().schedule(harness.key(0), [&] {
        ab.post(mailer.key(100), [&] { order.push_back("mail0"); });
        ab.post(mailer.key(100), [&] { order.push_back("mail1"); });
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
    b.eventQueue().schedule(harness.key(100),
                            [&] { order.push_back("harness"); });
    eng.run();
    // Leftover mail is injected when the next run starts, after the
    // harness event was scheduled on tick 100; the mail's source has
    // the lower id, so it still runs first.
    const std::vector<std::string> expect = {"mail0", "mail1",
                                             "harness"};
    EXPECT_EQ(order, expect);
    // Posts count in the call that injects them.
    EXPECT_EQ(simu.stats().counterValue("parallel.mailboxPosts"), 2u);
    EXPECT_EQ(simu.stats().counterValue("parallel.batchedPosts"), 2u);
}

TEST(ParallelEngine, RunAfterParkVisitsEveryWorkersPartitions)
{
    sim::Simulation simu(19);
    sim::ParallelEngine &eng = engineOf(simu, 3);
    std::vector<sim::Partition *> parts;
    for (std::size_t i = 0; i < 4; ++i)
        parts.push_back(&eng.addPartition(partName(i)));
    // Mail crosses owners too: p1 (partition 2, so worker 2) posts to
    // p2 (partition 3, worker 0); partition 0 is the simulation's own.
    auto &mb = eng.mailbox(*parts[1], *parts[2], 10);
    sim::EventSource src = simu.addSource();
    std::vector<int> ran(parts.size(), 0);
    int mail = 0;
    for (std::size_t i = 0; i < parts.size(); ++i)
        parts[i]->eventQueue().schedule(src.key(5),
                                        [&ran, i] { ++ran[i]; });
    parts[1]->eventQueue().schedule(src.key(6), [&] {
        mb.post(src.key(20), [&] { ++mail; });
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
    sim::EventSource harness = simu.addSource();
    sim::ParallelEngine &eng = engineOf(simu, 2);
    auto &a = eng.addPartition("a");
    auto &b = eng.addPartition("b");
    // Mutual edges bound a's horizon: under per-edge horizons a
    // partition with no incoming edges runs clean to the deadline in
    // one epoch. L=5 both ways makes H_a = next_a + 10, so with events
    // spaced 10 apart each epoch executes exactly one.
    eng.mailbox(a, b, 5);
    eng.mailbox(b, a, 5);
    int count = 0;
    for (Tick t = 0; t < 100; t += 10)
        a.eventQueue().schedule(harness.key(t), [&] { ++count; });
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
    sim::EventSource harness = simu.addSource();
    sim::ParallelEngine &eng = engineOf(simu, 2);
    auto &fa = eng.addPartition("fa");
    auto &fb = eng.addPartition("fb");
    auto &sa = eng.addPartition("sa");
    auto &sb = eng.addPartition("sb");
    // Two disjoint pairs: the fast pair's edges declare a wide
    // lookahead, the slow pair's a narrow one.
    eng.mailbox(fa, fb, 1000);
    eng.mailbox(fb, fa, 1000);
    eng.mailbox(sa, sb, 10);
    eng.mailbox(sb, sa, 10);
    int fast = 0;
    int slow = 0;
    for (Tick t = 0; t < 100; t += 10) {
        fa.eventQueue().schedule(harness.key(t), [&] { ++fast; });
        sa.eventQueue().schedule(harness.key(t), [&] { ++slow; });
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
    sim::ParallelEngine &eng = engineOf(simu, 2);
    auto &a = eng.addPartition("a");
    auto &b = eng.addPartition("b");
    auto &c = eng.addPartition("c");
    auto &ab = eng.mailbox(a, b, 10);
    auto &bc = eng.mailbox(b, c, 10);
    sim::EventSource srcA = simu.addSource();
    sim::EventSource srcB = simu.addSource();
    sim::EventSource harness = simu.addSource();

    // b starts empty and wakes only when a's post arrives, then
    // forwards into c below c's far-future local event. c's horizon
    // must be bounded by b's *floor* (B_a + 10), not b's next-event
    // tick (infinity): otherwise c runs its tick-1000 event in the
    // first epoch and the tick-20 delivery violates its horizon.
    std::vector<Tick> cOrder; // written only by partition c
    a.eventQueue().schedule(harness.key(0), [&] {
        ab.post(srcA.key(10), [&] {
            bc.post(srcB.key(20),
                    [&] { cOrder.push_back(c.eventQueue().now()); });
        });
    });
    c.eventQueue().schedule(harness.key(1000),
                            [&] { cOrder.push_back(c.eventQueue().now()); });
    eng.run();
    const std::vector<Tick> expect = {20, 1000};
    EXPECT_EQ(cOrder, expect);
    EXPECT_EQ(eng.executed(), 4u);
}

TEST(ParallelEngine, TightestIncomingEdgeBoundsHorizon)
{
    sim::Simulation simu(13);
    sim::EventSource harness = simu.addSource();
    sim::ParallelEngine &eng = engineOf(simu, 2);
    auto &a = eng.addPartition("a");
    auto &b = eng.addPartition("b");
    auto &c = eng.addPartition("c");
    // c has two incoming edges: a wide one from a and a tight one
    // from b (whose own floor tracks c through the return edge). The
    // tight edge must win: H_c = next_c + 4.
    eng.mailbox(a, c, 1000);
    eng.mailbox(b, c, 2);
    eng.mailbox(c, b, 2);
    int count = 0;
    a.eventQueue().schedule(harness.key(0), [] {});
    for (Tick t = 0; t < 100; t += 10)
        c.eventQueue().schedule(harness.key(t), [&] { ++count; });
    eng.run();
    EXPECT_EQ(count, 10);
    // One event per epoch; had the wide edge bounded the horizon, all
    // ten would have drained in the first.
    EXPECT_EQ(eng.epochs(), 10u);
}

TEST(ParallelEngine, RedeclaredEdgeKeepsItsTightestLookahead)
{
    sim::Simulation simu(5);
    sim::EventSource harness = simu.addSource();
    sim::ParallelEngine &eng = engineOf(simu, 2);
    auto &a = eng.addPartition("a");
    auto &b = eng.addPartition("b");
    // Two parallel trunks between one pair: a wide one declared first,
    // then a tight one. One mailbox carries both, at the tight bound.
    sim::Mailbox &wide = eng.mailbox(a, b, 1000);
    EXPECT_EQ(wide.lookahead(), 1000u);
    sim::Mailbox &tight = eng.mailbox(a, b, 10);
    EXPECT_EQ(&tight, &wide);
    EXPECT_EQ(tight.lookahead(), 10u);
    // A later, wider declaration does not loosen it.
    EXPECT_EQ(eng.mailbox(a, b, 1000).lookahead(), 10u);
    eng.mailbox(b, a, 10);
    // The horizon follows the kept bound: H_a = next_a + 20, so ten
    // events 10 apart take five epochs (at 1000 they would take one).
    int count = 0;
    for (Tick t = 0; t < 100; t += 10)
        a.eventQueue().schedule(harness.key(t), [&] { ++count; });
    eng.run();
    EXPECT_EQ(count, 10);
    EXPECT_EQ(eng.epochs(), 5u);
}

TEST(ParallelEngine, RegistersParallelStats)
{
    sim::Simulation simu(1);
    // An unpartitioned simulation registers none.
    EXPECT_FALSE(simu.stats().contains("parallel.epochs"));
    sim::ParallelEngine &eng = engineOf(simu, 2);
    auto &a = eng.addPartition("a");
    auto &b = eng.addPartition("b");
    auto &ab = eng.mailbox(a, b, 10);
    for (const char *leaf :
         {"parallel.epochs", "parallel.mailboxPosts",
          "parallel.batchedPosts", "parallel.horizonStalls",
          "parallel.epochEventsMax", "parallel.epochEventsMin"})
        EXPECT_TRUE(simu.stats().contains(leaf)) << leaf;
    int got = 0;
    sim::EventSource src = simu.addSource();
    a.eventQueue().schedule(src.key(0), [&] {
        ab.post(src.key(10), [&] { ++got; });
        ab.post(src.key(11), [&] { ++got; });
    });
    eng.run();
    EXPECT_EQ(got, 2);
    EXPECT_EQ(simu.stats().counterValue("parallel.epochs"), eng.epochs());
    EXPECT_EQ(simu.stats().counterValue("parallel.mailboxPosts"), 2u);
    // Both posts travelled in one batch.
    EXPECT_EQ(simu.stats().counterValue("parallel.batchedPosts"), 2u);
}

TEST(ParallelEngine, SimulationDelegatesRunCalls)
{
    sim::Simulation simu(5);
    sim::EventSource harness = simu.addSource();
    sim::ParallelEngine &eng = engineOf(simu, 2);
    auto &a = eng.addPartition("a");
    int ran = 0;
    a.eventQueue().schedule(harness.key(7), [&] { ++ran; });
    EXPECT_EQ(simu.run(), 1u);
    EXPECT_EQ(ran, 1);
}

TEST(ParallelEngine, SimObjectsCannotBeBuiltWhileAPartitionExecutes)
{
    // Source ids follow construction order; one handed out inside an
    // epoch would follow thread timing instead.
    sim::Simulation simu(1);
    sim::EventSource harness = simu.addSource();
    sim::ParallelEngine &eng = engineOf(simu, 1);
    auto &a = eng.addPartition("a");
    sim::SimObject first(simu, "first");
    EXPECT_EQ(&first.eventQueue(), &simu.eventQueue());
    a.eventQueue().schedule(
        harness.key(5), [&simu] { sim::SimObject late(simu, "late"); });
    EXPECT_DEATH(eng.run(), "event source added while a partition "
                            "executes");
}

TEST(ParallelEngine, SimulationNowPanicsWhileAPartitionExecutes)
{
    // Inside an epoch the engine's frontier is not the running
    // event's tick; the event's own queue has that.
    sim::Simulation simu(1);
    sim::EventSource harness = simu.addSource();
    sim::ParallelEngine &eng = engineOf(simu, 1);
    auto &a = eng.addPartition("a");
    Tick seen = 0;
    a.eventQueue().schedule(harness.key(5),
                            [&] { seen = a.eventQueue().now(); });
    eng.run();
    EXPECT_EQ(seen, 5u);
    EXPECT_EQ(simu.now(), eng.now());
    a.eventQueue().schedule(harness.key(9),
                            [&simu] { (void)simu.now(); });
    EXPECT_DEATH(eng.run(), "Simulation::now\\(\\) read while a "
                            "partition executes");
}

TEST(ParallelEngine, AssignByPrefixRebindsMatchingObjects)
{
    sim::Simulation simu(1);
    sim::SimObject host(simu, "host0");
    sim::SimObject nic(simu, "host0.nic");
    sim::SimObject other(simu, "host01"); // prefix but no dot: no match
    sim::ParallelEngine &eng = engineOf(simu, 1);
    auto &p = eng.addPartition("host0");
    eng.assignByPrefix("host0", p);
    EXPECT_EQ(&host.eventQueue(), &p.eventQueue());
    EXPECT_EQ(&nic.eventQueue(), &p.eventQueue());
    EXPECT_EQ(&other.eventQueue(), &simu.eventQueue());
}

TEST(ParallelEngine, ClearAllDropsPendingWork)
{
    sim::Simulation simu(1);
    sim::EventSource harness = simu.addSource();
    sim::ParallelEngine &eng = engineOf(simu, 2);
    auto &a = eng.addPartition("a");
    int ran = 0;
    a.eventQueue().schedule(harness.key(10), [&] { ++ran; });
    eng.clearAll();
    EXPECT_EQ(eng.run(), 0u);
    EXPECT_EQ(ran, 0);
}

TEST(ParallelEngine, OnePartitionChecksItsPredicateAfterEveryEvent)
{
    // An unpartitioned simulation is its engine's one partition, which
    // has no edge to wait on, so a barrier after every event: the run
    // stops at the deciding event, whatever the worker count. Its
    // events may read Simulation::now(), the partition's clock.
    sim::Simulation simu(3);
    sim::ParallelEngine &eng = engineOf(simu, 2);
    ASSERT_EQ(eng.numPartitions(), 1u);
    sim::EventQueue &a = simu.eventQueue();
    EXPECT_EQ(&a, &eng.partition(0).eventQueue());
    sim::EventSource harness = simu.addSource();
    int count = 0;
    for (Tick t = 0; t < 100; t += 10) {
        a.schedule(harness.key(t), [&, t] {
            EXPECT_EQ(simu.now(), t);
            ++count;
        });
    }
    EXPECT_TRUE(simu.runUntilCondition([&] { return count >= 3; }, 1000));
    EXPECT_EQ(count, 3);
    EXPECT_EQ(simu.now(), 20u);
    // A deadline between events stops there, clock and all.
    EXPECT_FALSE(simu.runUntilCondition([] { return false; }, 45));
    EXPECT_EQ(count, 5);
    EXPECT_EQ(simu.now(), 40u);
    EXPECT_EQ(eng.epochs(), 0u);
    // runUntil leaves the clock at its bound; run() at the last event.
    simu.runUntil(55);
    EXPECT_EQ(simu.now(), 55u);
    EXPECT_EQ(simu.run(), 4u);
    EXPECT_EQ(simu.now(), 90u);
    EXPECT_EQ(count, 10);
    EXPECT_EQ(a.executed(), eng.executed());
}

TEST(ParallelEngineDeathTest, APartitionCannotMailItself)
{
    sim::Simulation simu(1);
    sim::ParallelEngine &eng = engineOf(simu, 1);
    auto &a = eng.addPartition("a");
    EXPECT_DEATH(eng.mailbox(a, a, 10), "cannot mail itself");
}

// --- typed mail ------------------------------------------------------

// A mailbox message carries its closure in an EventFn, which the
// destination's event record adopts: the closure is built once at the
// post and moved from there on, never copied or wrapped again.
static_assert(sizeof(sim::detail::EventRecord) == 160,
              "fanin and pingpong live in the event slab: a record "
              "must not grow");

namespace {

/** What became of the payload a posted closure owns. */
struct PayloadLog
{
    int copies = 0;
    /** Destructions of an instance that was not moved from. */
    int destroyed = 0;
    int ran = 0;
};

/** A payload that reports its copies and its one real destruction. */
class Counted
{
  public:
    explicit Counted(PayloadLog &log) : log_(&log) {}
    Counted(const Counted &o) : log_(o.log_) { ++log_->copies; }
    Counted(Counted &&o) noexcept : log_(o.log_), live_(o.live_)
    {
        o.live_ = false;
    }
    Counted &operator=(const Counted &) = delete;
    Counted &operator=(Counted &&) = delete;
    ~Counted()
    {
        if (live_)
            ++log_->destroyed;
    }

    void use() const { ++log_->ran; }

  private:
    PayloadLog *log_;
    bool live_ = true;
};

/** A closure that fits EventFn's inline storage. */
auto
smallClosure(PayloadLog &log)
{
    return [c = Counted(log)] { c.use(); };
}

/** A closure too large for EventFn's inline storage (heap path). */
auto
largeClosure(PayloadLog &log)
{
    std::array<std::uint8_t, 2 * sim::detail::EventFn::inlineBytes> pad{};
    pad[0] = 1;
    return [c = Counted(log), pad] {
        if (pad[0] == 1)
            c.use();
    };
}

/**
 * Partition a posts the closure @p make builds to partition b. With
 * @p drop the run stops at the barrier after a's epoch, the post still
 * undelivered in the mailbox, and clearAll() drops it; otherwise b
 * runs it. Either way the engine is gone when this returns, so @p log
 * shows every destruction.
 */
template <typename Make>
void
mailOnce(bool drop, Make make, PayloadLog &log)
{
    sim::Simulation simu(1);
    sim::ParallelEngine &eng = engineOf(simu, 2);
    auto &a = eng.addPartition("a");
    auto &b = eng.addPartition("b");
    auto &ab = eng.mailbox(a, b, 10);
    sim::EventSource src = simu.addSource();
    bool sent = false;
    a.eventQueue().schedule(src.key(0), [&] {
        ab.post(src.key(10), make(log));
        sent = true;
    });
    if (drop) {
        EXPECT_TRUE(eng.runUntilCondition([&] { return sent; }));
        EXPECT_EQ(log.destroyed, 0);
        eng.clearAll();
        EXPECT_EQ(log.destroyed, 1);
    } else {
        eng.run();
    }
}

} // namespace

TEST(ParallelEngine, TypedMailMovesItsClosureFromPostToRun)
{
    PayloadLog log;
    mailOnce(false, smallClosure, log);
    EXPECT_EQ(log.ran, 1);
    EXPECT_EQ(log.copies, 0);
    EXPECT_EQ(log.destroyed, 1);
}

TEST(ParallelEngine, TypedMailDroppedByClearAllIsDestroyedOnce)
{
    PayloadLog log;
    mailOnce(true, smallClosure, log);
    EXPECT_EQ(log.ran, 0);
    EXPECT_EQ(log.copies, 0);
    EXPECT_EQ(log.destroyed, 1);
}

TEST(ParallelEngine, TypedMailHeapClosureIsMovedAndDestroyedOnce)
{
    PayloadLog probe;
    static_assert(sizeof(largeClosure(probe)) >
                  sim::detail::EventFn::inlineBytes);
    for (const bool drop : {false, true}) {
        SCOPED_TRACE(drop);
        PayloadLog log;
        mailOnce(drop, largeClosure, log);
        EXPECT_EQ(log.ran, drop ? 0 : 1);
        EXPECT_EQ(log.copies, 0);
        EXPECT_EQ(log.destroyed, 1);
    }
}
