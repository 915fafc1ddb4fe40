/**
 * @file
 * sim::RingFifo: a seeded differential test against std::deque
 * (growth while wrapped included), element lifetimes with a counting
 * move-only type, "empty means no storage" down to the allocator,
 * and the footprint pin it exists for: a fresh RC QP on an SRQ and
 * its connected TcpConnection own no queue storage until the first
 * post.
 */

#include <gtest/gtest.h>

#include <malloc.h>

#include <deque>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "apps/testbed.hh"
#include "sim/ring_fifo.hh"

using namespace qpip;
using sim::RingFifo;

namespace {

template <class T>
void
expectSame(const RingFifo<T> &ring, const std::deque<T> &ref)
{
    ASSERT_EQ(ring.size(), ref.size());
    ASSERT_EQ(ring.empty(), ref.empty());
    if (ref.empty())
        return;
    EXPECT_EQ(ring.front(), ref.front());
    EXPECT_EQ(ring.back(), ref.back());
    std::size_t i = 0;
    for (const T &v : ring) {
        ASSERT_LT(i, ref.size());
        EXPECT_EQ(v, ref[i]);
        EXPECT_EQ(ring[i], ref[i]);
        ++i;
    }
    EXPECT_EQ(i, ref.size());
}

/** Move-only element counting its constructions and destructions. */
struct Counted
{
    static inline int made = 0;
    static inline int gone = 0;

    explicit Counted(int v) : value(std::make_unique<int>(v)) { ++made; }
    Counted(Counted &&o) noexcept : value(std::move(o.value)) { ++made; }
    Counted &operator=(Counted &&o) noexcept = default;
    ~Counted() { ++gone; }

    std::unique_ptr<int> value;
};

} // namespace

TEST(RingFifo, MatchesDequeUnderRandomOps)
{
    std::mt19937 rng(20021);
    RingFifo<std::string> ring;
    std::deque<std::string> ref;
    int wrappedGrowths = 0;
    for (int op = 0; op < 4000; ++op) {
        // Long strings live on the heap, so moves are observable.
        const std::string v =
            "element-" + std::to_string(op) + std::string(op % 40, 'x');
        const unsigned dice = rng() % 100;
        if (dice < 45) {
            if (ring.size() == ring.capacity() && ring.size() > 1 &&
                &ring.front() > &ring.back())
                ++wrappedGrowths;
            if (dice % 2 == 0)
                ring.push_back(v);
            else
                ring.emplace_back(v.begin(), v.end());
            ref.push_back(v);
        } else if (dice < 85) {
            if (!ref.empty()) {
                ring.pop_front();
                ref.pop_front();
            }
        } else if (dice < 87) {
            ring.clear();
            ref.clear();
        } else if (dice < 92) {
            // Move out and back: the source is left empty.
            RingFifo<std::string> moved(std::move(ring));
            EXPECT_TRUE(ring.empty());
            EXPECT_EQ(ring.capacity(), 0u);
            ring = std::move(moved);
            EXPECT_EQ(moved.capacity(), 0u);
        } else if (!ref.empty()) {
            const std::size_t i = rng() % ref.size();
            ring[i] += "!";
            ref[i] += "!";
        }
        expectSame(ring, ref);
    }
    EXPECT_GT(wrappedGrowths, 0);
}

TEST(RingFifo, PushOfOwnElementSurvivesGrowth)
{
    RingFifo<std::string> ring;
    ring.push_back(std::string(64, 'a'));
    while (ring.size() < ring.capacity())
        ring.push_back(std::string(64, 'b'));
    ring.push_back(ring.front()); // grows: the argument is moved away
    EXPECT_EQ(ring.back(), std::string(64, 'a'));
}

TEST(RingFifo, ConstructionsEqualDestructions)
{
    Counted::made = Counted::gone = 0;
    {
        RingFifo<Counted> a;
        for (int i = 0; i < 37; ++i)
            a.emplace_back(i);
        for (int i = 0; i < 5; ++i)
            a.pop_front();
        EXPECT_EQ(*a.front().value, 5);
        a.clear();
        EXPECT_EQ(Counted::made, Counted::gone);

        for (int i = 0; i < 11; ++i)
            a.push_back(Counted(i));
        RingFifo<Counted> b;
        for (int i = 0; i < 3; ++i)
            b.emplace_back(100 + i);
        b = std::move(a); // b's three die, a's eleven move over
        EXPECT_EQ(Counted::made - Counted::gone, 11);
        EXPECT_EQ(*b.front().value, 0);
        EXPECT_EQ(*b.back().value, 10);
    }
    EXPECT_EQ(Counted::made, Counted::gone);
}

TEST(RingFifo, EmptyMeansNoStorage)
{
    // Bytes the allocator has handed out (sanitizer builds, whose
    // allocator glibc does not see, read a constant here).
    const std::size_t before = mallinfo2().uordblks;
    RingFifo<std::string> ring;
    RingFifo<std::string> moved(std::move(ring));
    const std::size_t after = mallinfo2().uordblks;
    EXPECT_EQ(after, before);
    EXPECT_EQ(ring.capacity(), 0u);
    EXPECT_EQ(moved.capacity(), 0u);
    EXPECT_TRUE(ring.begin() == ring.end());

    ring.emplace_back();
    EXPECT_EQ(ring.capacity(), RingFifo<std::string>::minCapacity);
    // Pops and clear keep the storage for reuse.
    ring.pop_front();
    ring.clear();
    EXPECT_EQ(ring.capacity(), RingFifo<std::string>::minCapacity);
}

TEST(RingFifoFootprint, FreshSrqQpAndConnectionOwnNoQueueStorage)
{
    apps::QpipTestbed bed(2);
    auto &client = bed.provider(0);
    auto &server = bed.provider(1);

    auto scq = server.createCq();
    verbs::QpAttrs attrs;
    attrs.srq = server.createSrq();
    verbs::Acceptor acc(server, 700, scq, scq);
    std::shared_ptr<verbs::QueuePair> serverQp;
    acc.acceptOne(
        [&](std::shared_ptr<verbs::QueuePair> q) {
            serverQp = std::move(q);
        },
        attrs);
    auto ccq = client.createCq();
    auto clientQp = client.createQp(nic::QpType::ReliableTcp, ccq, ccq);
    bool connected = false;
    clientQp->connect(bed.addr(1, 700),
                      [&](bool ok) { connected = ok; });
    ASSERT_TRUE(bed.sim().runUntilCondition(
        [&] { return connected && serverQp != nullptr; },
        bed.sim().now() + 20 * sim::oneSec));

    auto &snic = bed.nicOf(1);
    auto *conn = snic.connectionOf(serverQp->num());
    ASSERT_NE(conn, nullptr);
    EXPECT_EQ(snic.queueSlots(serverQp->num()), 0u);
    EXPECT_EQ(conn->queueSlots(), 0u);

    // The first post allocates the host send ring; sending it fills
    // the in-flight queue and the connection's message queue.
    std::vector<std::uint8_t> rbuf(64), sbuf(64);
    auto rmr = client.registerMemory(rbuf);
    auto smr = server.registerMemory(sbuf);
    ASSERT_TRUE(clientQp->postRecv(1, *rmr, 0, rbuf.size()));
    ASSERT_TRUE(serverQp->postSend(2, *smr, 0, sbuf.size()));
    EXPECT_GT(snic.queueSlots(serverQp->num()), 0u);
    ASSERT_TRUE(bed.sim().runUntilCondition(
        [&] { return scq->depth() > 0; },
        bed.sim().now() + 20 * sim::oneSec));
    EXPECT_GT(conn->queueSlots(), 0u);
}
