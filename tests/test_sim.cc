/**
 * @file
 * Unit tests for the simulation kernel: event ordering and
 * cancellation, clock-domain conversion, statistics, RNG determinism.
 */

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/clock.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"

using namespace qpip::sim;

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    EventSource src{1};
    std::vector<int> order;
    eq.schedule(src.key(30), [&] { order.push_back(3); });
    eq.schedule(src.key(10), [&] { order.push_back(1); });
    eq.schedule(src.key(20), [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, TieBreaksByPriorityThenInsertion)
{
    EventQueue eq;
    EventSource src{1};
    std::vector<int> order;
    eq.schedule(src.key(10, 5), [&] { order.push_back(1); });
    eq.schedule(src.key(10, -1), [&] { order.push_back(2); });
    eq.schedule(src.key(10, 5), [&] { order.push_back(3); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue eq;
    EventSource src{1};
    bool ran = false;
    auto h = eq.schedule(src.key(10), [&] { ran = true; });
    EXPECT_TRUE(h.pending());
    h.cancel();
    EXPECT_FALSE(h.pending());
    eq.run();
    EXPECT_FALSE(ran);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    EventSource src{1};
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 5)
            eq.schedule(src.key(eq.now() + 10), chain);
    };
    eq.schedule(src.key(0), chain);
    eq.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, RunUntilStopsBeforeBoundary)
{
    EventQueue eq;
    EventSource src{1};
    int count = 0;
    eq.schedule(src.key(10), [&] { ++count; });
    eq.schedule(src.key(20), [&] { ++count; });
    eq.runUntil(20); // events at exactly 20 do not run
    EXPECT_EQ(count, 1);
    EXPECT_EQ(eq.now(), 20u);
    eq.run();
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, NextEventTickSkipsCancelled)
{
    EventQueue eq;
    EventSource src{1};
    auto h = eq.schedule(src.key(10), [] {});
    eq.schedule(src.key(20), [] {});
    h.cancel();
    EXPECT_EQ(eq.nextEventTick(), 20u);
}

TEST(Clock, ConvertsCyclesToTicks)
{
    ClockDomain host(550'000'000);
    // One cycle at 550 MHz is ~1818.18 ps.
    EXPECT_EQ(host.cyclesToTicks(1), 1818u);
    EXPECT_EQ(host.cyclesToTicks(550'000'000), oneSec);

    ClockDomain lanai(133'000'000);
    EXPECT_NEAR(static_cast<double>(lanai.cyclesToTicks(133)),
                static_cast<double>(oneUs), 5.0);
}

TEST(Clock, UsToCyclesRoundTrips)
{
    ClockDomain lanai(133'000'000);
    EXPECT_EQ(lanai.usToCycles(1.0), 133u);
    EXPECT_EQ(lanai.usToCycles(5.5), 732u);
}

TEST(Stats, SampleStatMoments)
{
    SampleStat s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.sample(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_EQ(s.min(), 2.0);
    EXPECT_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.total(), 40.0);
}

TEST(Stats, HistogramBucketsAndQuantiles)
{
    Histogram h(0.0, 100.0, 10);
    for (int i = 0; i < 100; ++i)
        h.sample(i + 0.5);
    EXPECT_EQ(h.count(), 100u);
    for (std::size_t i = 0; i < 10; ++i)
        EXPECT_EQ(h.bucket(i), 10u);
    EXPECT_NEAR(h.quantile(0.5), 55.0, 10.0);
    h.sample(-1);
    h.sample(1000);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
}

TEST(Random, DeterministicAcrossInstances)
{
    Random a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, UniformIntStaysInRange)
{
    Random r(7);
    for (int i = 0; i < 1000; ++i) {
        auto v = r.uniformInt(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}

TEST(Random, BernoulliRespectsProbability)
{
    Random r(11);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += r.bernoulli(0.3);
    EXPECT_NEAR(hits / 100000.0, 0.3, 0.02);
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
}

TEST(Random, StreamSeedIsAFixedHashOfSeedNameAndSalt)
{
    // FNV-1a over the seed's bytes, the name and the salt's bytes
    // (little-endian): the same on every platform and library.
    EXPECT_EQ(streamSeed(1, "fabric.link0"), 0x326534f8180db33fULL);
    EXPECT_EQ(streamSeed(1, "fabric.link0", 1), 0x136a6def0d1e691eULL);
    EXPECT_EQ(streamSeed(1, "host0.stack"), 0xae99a1a25e6a717cULL);
    EXPECT_NE(streamSeed(2, "fabric.link0"), streamSeed(1, "fabric.link0"));
}

TEST(Simulation, RunUntilConditionStopsEarly)
{
    Simulation sim;
    EventSource src = sim.addSource();
    int count = 0;
    for (int i = 1; i <= 10; ++i)
        sim.eventQueue().schedule(src.key(i * 10), [&] { ++count; });
    const bool met =
        sim.runUntilCondition([&] { return count == 3; });
    EXPECT_TRUE(met);
    EXPECT_EQ(count, 3);
    sim.run();
    EXPECT_EQ(count, 10);
}

TEST(Simulation, RunForAdvancesTime)
{
    Simulation sim;
    sim.runFor(5 * oneUs);
    EXPECT_EQ(sim.now(), 5 * oneUs);
}

// ---------------------------------------------------------------------
// Pooled event records: handle generations, when(), slab reuse
// ---------------------------------------------------------------------

TEST(EventQueue, WhenReportsMaxTickOnceRunOrCancelled)
{
    EventQueue eq;
    EventSource src{1};
    EventHandle inert;
    EXPECT_EQ(inert.when(), maxTick);

    auto h = eq.schedule(src.key(10), [] {});
    EXPECT_EQ(h.when(), 10u);
    h.cancel();
    EXPECT_EQ(h.when(), maxTick);

    auto h2 = eq.schedule(src.key(20), [] {});
    EXPECT_EQ(h2.when(), 20u);
    eq.run();
    // Regression: a handle whose event already fired must not report
    // its old expiry tick.
    EXPECT_EQ(h2.when(), maxTick);
    EXPECT_FALSE(h2.pending());
}

TEST(EventQueue, StaleHandleOnRecycledSlotIsInert)
{
    EventQueue eq;
    EventSource src{1};
    bool second = false;
    auto h1 = eq.schedule(src.key(10), [] {});
    eq.run();
    // The slot is free now; the next schedule reuses it (LIFO).
    auto h2 = eq.schedule(src.key(20), [&] { second = true; });
    EXPECT_FALSE(h1.pending());
    EXPECT_EQ(h1.when(), maxTick);
    h1.cancel(); // must NOT cancel the new occupant of the slot
    EXPECT_TRUE(h2.pending());
    eq.run();
    EXPECT_TRUE(second);
}

TEST(EventQueue, SteadyStateSchedulingDoesNotGrowSlab)
{
    EventQueue eq;
    EventSource src{1};
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 1000)
            eq.schedule(src.key(eq.now() + 1), chain);
    };
    eq.schedule(src.key(0), chain);
    eq.run();
    EXPECT_EQ(count, 1000);
    // One self-rescheduling event occupies one slot, recycled on
    // every fire; a couple of records cover the whole run.
    EXPECT_LE(eq.slabSize(), 2u);
    EXPECT_EQ(eq.freeSlots(), eq.slabSize());
}

TEST(EventQueue, CancelFreesSlotAtOnce)
{
    EventQueue eq;
    EventSource src{1};
    bool cancelledRan = false;
    bool freshRan = false;
    auto h = eq.schedule(src.key(10), [&] { cancelledRan = true; });
    h.cancel();
    // Before anything runs, the cancelled event is gone: its slot is
    // back on the freelist and the queue is empty.
    EXPECT_EQ(eq.freeSlots(), eq.slabSize());
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.nextEventTick(), maxTick);
    // The next schedule reuses that slot; the old handle stays inert.
    auto h2 = eq.schedule(src.key(20), [&] { freshRan = true; });
    EXPECT_EQ(eq.slabSize(), 1u);
    EXPECT_EQ(eq.freeSlots(), 0u);
    EXPECT_FALSE(h.pending());
    h.cancel();
    EXPECT_TRUE(h2.pending());
    eq.run();
    EXPECT_FALSE(cancelledRan);
    EXPECT_TRUE(freshRan);
}

/**
 * Seeded differential check against a reference ordered map of
 * (when, priority, source, seq) keys: random schedules from random
 * sources, cancels on live and stale handles, single steps and bounded runs.
 * After every operation the queue has run exactly the reference's
 * order and holds exactly the reference's live events.
 */
TEST(EventQueue, MatchesReferenceOrderUnderRandomCancels)
{
    using Key = std::tuple<Tick, int, std::uint32_t, std::uint64_t>;
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        Random rng(seed);
        EventQueue eq;
        std::vector<EventSource> sources;
        for (std::uint32_t id = 1; id <= 4; ++id)
            sources.emplace_back(id);
        std::map<Key, std::uint64_t> live; // key -> event id
        std::vector<Key> keys;             // by event id
        std::vector<EventHandle> handles;
        std::vector<std::uint64_t> ran;
        std::vector<std::uint64_t> expected;
        for (int op = 0; op < 4000; ++op) {
            const std::uint64_t kind = rng.uniformInt(0, 9);
            if (kind < 5 || handles.empty()) {
                // Near ticks tie often; far ones build a deep heap.
                const Tick when =
                    eq.now() + rng.uniformInt(0, rng.bernoulli(0.3) ? 4 : 400);
                const int prio = static_cast<int>(rng.uniformInt(0, 2)) - 1;
                const std::uint64_t id = keys.size();
                const auto fn = [&ran, id] { ran.push_back(id); };
                const EventKey key =
                    sources[rng.uniformInt(0, sources.size() - 1)].key(
                        when, prio);
                keys.emplace_back(key.when, key.priority, key.source,
                                  key.seq);
                handles.push_back(eq.schedule(key, fn));
                live.emplace(keys.back(), id);
            } else if (kind < 8) {
                const std::size_t id = rng.uniformInt(0, handles.size() - 1);
                handles[id].cancel();
                live.erase(keys[id]);
                EXPECT_FALSE(handles[id].pending());
            } else if (kind < 9) {
                EXPECT_EQ(eq.step(), !live.empty());
                if (!live.empty()) {
                    expected.push_back(live.begin()->second);
                    live.erase(live.begin());
                }
            } else {
                const Tick until = eq.now() + rng.uniformInt(0, 20);
                eq.runUntil(until);
                while (!live.empty() &&
                       std::get<0>(live.begin()->first) < until) {
                    expected.push_back(live.begin()->second);
                    live.erase(live.begin());
                }
            }
            ASSERT_EQ(ran, expected) << "seed " << seed << " op " << op;
            ASSERT_EQ(eq.slabSize() - eq.freeSlots(), live.size())
                << "seed " << seed << " op " << op;
            ASSERT_EQ(eq.nextEventTick(),
                      live.empty() ? maxTick
                                   : std::get<0>(live.begin()->first));
            const std::size_t probe = rng.uniformInt(0, handles.size() - 1);
            const bool isLive = live.count(keys[probe]) != 0;
            ASSERT_EQ(handles[probe].pending(), isLive);
            ASSERT_EQ(handles[probe].when(),
                      isLive ? std::get<0>(keys[probe]) : maxTick);
        }
    }
}

namespace {

/** Runs a callback when destroyed (not when moved from). */
class OnDestroy
{
  public:
    explicit OnDestroy(std::function<void()> fn) : fn_(std::move(fn)) {}
    OnDestroy(OnDestroy &&o) noexcept : fn_(std::exchange(o.fn_, nullptr))
    {}
    OnDestroy(const OnDestroy &) = delete;
    ~OnDestroy()
    {
        if (fn_)
            fn_();
    }

  private:
    std::function<void()> fn_;
};

} // namespace

TEST(EventQueue, ClosureDestructorMayCancelAndScheduleWhenDropped)
{
    for (const bool viaClear : {false, true}) {
        EventQueue eq;
        EventSource src{1};
        std::vector<int> ran;
        EventHandle victim =
            eq.schedule(src.key(20), [&] { ran.push_back(2); });
        EventHandle fresh;
        EventHandle dropped = eq.schedule(
            src.key(10), [&, g = OnDestroy([&] {
                    victim.cancel();
                    fresh = eq.schedule(src.key(30),
                                        [&] { ran.push_back(3); });
                })] { ran.push_back(1); });
        if (viaClear)
            eq.clear();
        else
            dropped.cancel();
        EXPECT_FALSE(dropped.pending());
        EXPECT_FALSE(victim.pending());
        // clear() discards what a dropped closure schedules.
        EXPECT_EQ(fresh.pending(), !viaClear);
        EXPECT_EQ(eq.slabSize() - eq.freeSlots(), viaClear ? 0u : 1u);
        EXPECT_EQ(eq.nextEventTick(), viaClear ? maxTick : Tick{30});
        eq.run();
        EXPECT_EQ(ran, viaClear ? std::vector<int>{} : std::vector<int>{3});
        EXPECT_EQ(eq.freeSlots(), eq.slabSize());
    }
}

TEST(EventQueue, ClearDropsEventsAndRecyclesSlots)
{
    EventQueue eq;
    EventSource src{1};
    bool ran = false;
    eq.schedule(src.key(10), [&] { ran = true; });
    eq.schedule(src.key(20), [&] { ran = true; });
    eq.clear();
    EXPECT_TRUE(eq.empty());
    eq.run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(eq.freeSlots(), eq.slabSize());
}

TEST(EventQueue, LargeClosuresFallBackToHeapCorrectly)
{
    EventQueue eq;
    EventSource src{1};
    // Capture well past EventFn::inlineBytes to force the heap path.
    std::array<std::uint64_t, 64> big{};
    big[0] = 7;
    big[63] = 9;
    std::uint64_t seen = 0;
    eq.schedule(src.key(10), [big, &seen] { seen = big[0] + big[63]; });
    eq.run();
    EXPECT_EQ(seen, 16u);
}

