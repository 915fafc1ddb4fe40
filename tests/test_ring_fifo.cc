/**
 * @file
 * sim::RingFifo: a seeded differential test against std::deque
 * (growth while wrapped included), element lifetimes with a counting
 * move-only type, "empty means no storage" down to the allocator,
 * and the footprint pins it exists for: a fresh RC QP on an SRQ and
 * its connected TcpConnection own no queue storage until the first
 * post, a one-message fan-in leaves one slot in each queue it used,
 * and only RUD QPs carry RUD peer state.
 */

#include <gtest/gtest.h>

#include <malloc.h>

#include <deque>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "apps/testbed.hh"
#include "inet/tcp_conn.hh"
// qpip-lint: layer-ok(footprint pin: the test takes the QP context's size)
#include "nic/transport/qp_context.hh"
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

// The per-endpoint footprint: a connection carries only its own
// mode's state and refers to its config; a QP context carries RUD
// peer state only on a RUD QP. Layout pins for x86-64 libstdc++.
static_assert(sizeof(inet::TcpConnection) == 656,
              "TcpConnection grew: is the new field its mode's state?");
static_assert(sizeof(nic::QpipNic::QpContext) == 320,
              "QpContext grew: is the new field every QP type's state?");

namespace {

/**
 * A fan-in of @p n one-message senders into one server, every
 * message received and every send completed. RC: @p n client QPs
 * connect to QPs parked on the server's SRQ. RUD: @p n client peers
 * send to one server QP on the SRQ.
 */
struct OneMessageFanIn
{
    OneMessageFanIn(std::size_t n, nic::QpType type) : bed(2)
    {
        auto &client = bed.provider(0);
        auto &server = bed.provider(1);
        scq = server.createCq(256);
        ccq = client.createCq(256);
        verbs::QpAttrs attrs;
        attrs.srq = server.createSrq(256);
        rmr = server.registerMemory(rbuf);
        smr = client.registerMemory(sbuf);
        for (std::size_t i = 0; i < n; ++i)
            attrs.srq->postRecv(i, *rmr, i, 1);

        const bool rc = type == nic::QpType::ReliableTcp;
        std::size_t connected = 0;
        if (rc) {
            acc = std::make_unique<verbs::Acceptor>(server, 700, scq,
                                                    scq);
            for (std::size_t i = 0; i < n; ++i) {
                acc->acceptOne(
                    [this](std::shared_ptr<verbs::QueuePair> q) {
                        serverQps.push_back(std::move(q));
                    },
                    attrs);
            }
        } else {
            serverQps.push_back(server.createQp(type, scq, scq, attrs));
            serverQps.back()->bind(800);
        }
        for (std::size_t i = 0; i < n; ++i) {
            auto qp = client.createQp(type, ccq, ccq);
            if (rc) {
                qp->connect(bed.addr(1, 700),
                            [&connected](bool ok) { connected += ok; });
            } else {
                qp->bind(static_cast<std::uint16_t>(2000 + i));
                ++connected;
            }
            clientQps.push_back(std::move(qp));
        }
        ready = bed.sim().runUntilCondition(
            [&] {
                return connected == n &&
                       (!rc || serverQps.size() == n);
            },
            bed.sim().now() + 20 * sim::oneSec);

        for (std::size_t i = 0; ready && i < n; ++i) {
            ready = rc ? clientQps[i]->postSend(i, *smr, 0, 1)
                       : clientQps[i]->postSend(i, *smr, 0, 1,
                                                bed.addr(1, 800));
        }
        ready = ready && bed.sim().runUntilCondition(
                             [&] {
                                 return scq->depth() == n &&
                                        ccq->depth() == n;
                             },
                             bed.sim().now() + 20 * sim::oneSec);
    }

    apps::QpipTestbed bed;
    std::shared_ptr<verbs::CompletionQueue> scq, ccq;
    std::vector<std::uint8_t> rbuf = std::vector<std::uint8_t>(64);
    std::vector<std::uint8_t> sbuf = std::vector<std::uint8_t>(1);
    std::shared_ptr<verbs::MemoryRegion> rmr, smr;
    std::unique_ptr<verbs::Acceptor> acc;
    std::vector<std::shared_ptr<verbs::QueuePair>> serverQps, clientQps;
    bool ready = false;
};

} // namespace

TEST(RingFifoFootprint, RcFanInLeavesOneSlotPerUsedQueue)
{
    constexpr std::size_t n = 4;
    OneMessageFanIn f(n, nic::QpType::ReliableTcp);
    ASSERT_TRUE(f.ready);
    auto &cnic = f.bed.nicOf(0);
    auto &snic = f.bed.nicOf(1);
    // Each sender used two NIC-side queues (the host send ring and
    // the in-flight queue) and its connection's message queue, each
    // holding one entry at most; every queue used holds at least one
    // slot, so these sums say each holds exactly one.
    for (const auto &qp : f.clientQps) {
        EXPECT_EQ(cnic.queueSlots(qp->num()), 2u);
        EXPECT_EQ(cnic.connectionOf(qp->num())->queueSlots(), 1u);
    }
    // The receivers drew from the SRQ and sent nothing.
    for (const auto &qp : f.serverQps) {
        EXPECT_EQ(snic.queueSlots(qp->num()), 0u);
        EXPECT_EQ(snic.connectionOf(qp->num())->queueSlots(), 0u);
    }
}

TEST(RingFifoFootprint, RudFanInLeavesOneSlotPerUsedQueue)
{
    constexpr std::size_t n = 4;
    OneMessageFanIn f(n, nic::QpType::ReliableDatagram);
    ASSERT_TRUE(f.ready);
    // Each peer used its host send ring and its unacked window.
    for (const auto &qp : f.clientQps)
        EXPECT_EQ(f.bed.nicOf(0).queueSlots(qp->num()), 2u);
    // The server only acked: its n peer records hold no queue slots.
    EXPECT_EQ(f.bed.nicOf(1).queueSlots(f.serverQps[0]->num()), 0u);
}

TEST(RingFifoFootprint, OnlyRudQpsHoldRudPeerState)
{
    OneMessageFanIn rc(1, nic::QpType::ReliableTcp);
    ASSERT_TRUE(rc.ready);
    EXPECT_FALSE(rc.bed.nicOf(0).hasRudState(rc.clientQps[0]->num()));
    EXPECT_FALSE(rc.bed.nicOf(1).hasRudState(rc.serverQps[0]->num()));

    OneMessageFanIn rud(1, nic::QpType::ReliableDatagram);
    ASSERT_TRUE(rud.ready);
    EXPECT_TRUE(rud.bed.nicOf(0).hasRudState(rud.clientQps[0]->num()));
    EXPECT_TRUE(rud.bed.nicOf(1).hasRudState(rud.serverQps[0]->num()));

    auto &prov = rud.bed.provider(0);
    auto ud = prov.createQp(nic::QpType::UnreliableUdp, rud.ccq, rud.ccq);
    EXPECT_FALSE(rud.bed.nicOf(0).hasRudState(ud->num()));
}
