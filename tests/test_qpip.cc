/**
 * @file
 * Verbs / QPIP NIC tests: QP lifecycle, send-receive over reliable
 * and unreliable services, completion semantics (statuses, ordering,
 * Wait vs Poll), memory-region bounds, RNR hold, fragmentation of big
 * messages, multi-QP CQ sharing and teardown flushes.
 */

#include <gtest/gtest.h>

#include "apps/testbed.hh"
#include "apps/verbs_util.hh"

using namespace qpip;
using namespace qpip::apps;
using verbs::Completion;
using verbs::WcStatus;

namespace {

std::vector<std::uint8_t>
pattern(std::size_t n, std::uint8_t seed = 3)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(seed * 11 + i * 5);
    return v;
}

/** Connected RC pair with registered buffers, ready for messaging. */
struct RcPair
{
    explicit RcPair(QpipTestbed &bed, std::size_t buf_bytes = 1 << 16)
        : bed(bed)
    {
        cq0 = bed.provider(0).createCq();
        cq1 = bed.provider(1).createCq();
        buf0 = std::vector<std::uint8_t>(buf_bytes);
        buf1 = std::vector<std::uint8_t>(buf_bytes);
        mr0 = bed.provider(0).registerMemory(buf0);
        mr1 = bed.provider(1).registerMemory(buf1);
        acceptor = std::make_shared<verbs::Acceptor>(
            bed.provider(1), 700, cq1, cq1);
        acceptor->acceptOne(
            [this](std::shared_ptr<verbs::QueuePair> q) {
                qp1 = std::move(q);
            });
        qp0 = bed.provider(0).createQp(nic::QpType::ReliableTcp, cq0,
                                       cq0);
        bool connected = false;
        qp0->connect(bed.addr(1, 700),
                     [&](bool ok) { connected = ok; });
        bed.sim().runUntilCondition(
            [&] { return connected && qp1 != nullptr; },
            bed.sim().now() + 10 * sim::oneSec);
    }

    bool ready() const { return qp0 && qp1; }

    QpipTestbed &bed;
    std::shared_ptr<verbs::CompletionQueue> cq0, cq1;
    std::vector<std::uint8_t> buf0, buf1;
    std::shared_ptr<verbs::MemoryRegion> mr0, mr1;
    std::shared_ptr<verbs::Acceptor> acceptor;
    std::shared_ptr<verbs::QueuePair> qp0, qp1;
};

/** Run the sim until @p cq has a completion; pop it. */
bool
awaitCompletion(QpipTestbed &bed, verbs::CompletionQueue &cq,
                Completion &out,
                sim::Tick deadline = 10 * sim::oneSec)
{
    bed.sim().runUntilCondition([&] { return cq.depth() > 0; },
                                bed.sim().now() + deadline);
    return cq.poll(out);
}

} // namespace

TEST(QpipVerbs, RendezvousEstablishes)
{
    QpipTestbed bed(2);
    RcPair p(bed);
    ASSERT_TRUE(p.ready());
    auto *conn = bed.nicOf(0).connectionOf(p.qp0->num());
    ASSERT_NE(conn, nullptr);
    EXPECT_TRUE(conn->established());
}

// Dropping an Acceptor destroys the QPs it parked; the NIC skips their
// stale listener entries and mates the next SYN to a live QP.
TEST(QpipVerbs, DroppedAcceptorsParkedQpsAreSkipped)
{
    QpipTestbed bed(2);
    auto &server = bed.provider(1);
    auto scq = server.createCq();
    bool stale = false;
    auto gone = std::make_unique<verbs::Acceptor>(server, 700, scq, scq);
    gone->acceptOne([&](std::shared_ptr<verbs::QueuePair>) { stale = true; });
    gone.reset();
    verbs::Acceptor acc(server, 700, scq, scq);
    std::shared_ptr<verbs::QueuePair> mated;
    acc.acceptOne(
        [&](std::shared_ptr<verbs::QueuePair> q) { mated = std::move(q); });

    auto ccq = bed.provider(0).createCq();
    auto qp = bed.provider(0).createQp(nic::QpType::ReliableTcp, ccq, ccq);
    bool connected = false;
    qp->connect(bed.addr(1, 700), [&](bool ok) { connected = ok; });
    ASSERT_TRUE(bed.sim().runUntilCondition(
        [&] { return connected && mated != nullptr; },
        bed.sim().now() + 10 * sim::oneSec));
    EXPECT_FALSE(stale);
}

TEST(QpipVerbs, SendReceiveMessage)
{
    QpipTestbed bed(2);
    RcPair p(bed);
    ASSERT_TRUE(p.ready());

    auto msg = pattern(4096);
    std::copy(msg.begin(), msg.end(), p.buf0.begin());
    p.qp1->postRecv(11, *p.mr1, 0, 8192);
    p.qp0->postSend(22, *p.mr0, 0, msg.size());

    Completion c;
    ASSERT_TRUE(awaitCompletion(bed, *p.cq1, c));
    EXPECT_FALSE(c.isSend);
    EXPECT_EQ(c.wrId, 11u);
    EXPECT_EQ(c.status, WcStatus::Success);
    EXPECT_EQ(c.byteLen, msg.size());
    EXPECT_TRUE(std::equal(msg.begin(), msg.end(), p.buf1.begin()));

    ASSERT_TRUE(awaitCompletion(bed, *p.cq0, c));
    EXPECT_TRUE(c.isSend);
    EXPECT_EQ(c.wrId, 22u);
    EXPECT_EQ(c.status, WcStatus::Success);
}

TEST(QpipVerbs, LargeMessageFragmentsAcrossMtu)
{
    QpipTestbed bed(2, 1500); // small link MTU forces fragmentation
    RcPair p(bed, 1 << 16);
    ASSERT_TRUE(p.ready());
    auto msg = pattern(40000);
    std::copy(msg.begin(), msg.end(), p.buf0.begin());
    p.qp1->postRecv(1, *p.mr1, 0, 65536);
    p.qp0->postSend(2, *p.mr0, 0, msg.size());
    Completion c;
    ASSERT_TRUE(awaitCompletion(bed, *p.cq1, c, 30 * sim::oneSec));
    EXPECT_EQ(c.byteLen, msg.size());
    EXPECT_TRUE(std::equal(msg.begin(), msg.end(), p.buf1.begin()));
}

TEST(QpipVerbs, ReceiveShorterThanBufferReportsActualLength)
{
    QpipTestbed bed(2);
    RcPair p(bed);
    ASSERT_TRUE(p.ready());
    p.qp1->postRecv(1, *p.mr1, 100, 1000); // offset into the region
    const auto msg = pattern(10);
    std::copy(msg.begin(), msg.end(), p.buf0.begin());
    p.qp0->postSend(2, *p.mr0, 0, 10);
    Completion c;
    ASSERT_TRUE(awaitCompletion(bed, *p.cq1, c));
    EXPECT_EQ(c.byteLen, 10u);
    EXPECT_TRUE(std::equal(msg.begin(), msg.end(),
                           p.buf1.begin() + 100));
}

TEST(QpipVerbs, MessageLargerThanPostedBufferErrors)
{
    QpipTestbed bed(2);
    RcPair p(bed);
    ASSERT_TRUE(p.ready());
    // Two small WRs make a 600-byte window, so the 500-byte message
    // transmits — but it exceeds the *front* WR's buffer, which is a
    // length error against that WR. (A message bigger than the whole
    // posted window is simply flow-controlled and never sent.)
    p.qp1->postRecv(1, *p.mr1, 0, 300);
    p.qp1->postRecv(2, *p.mr1, 300, 300);
    p.qp0->postSend(3, *p.mr0, 0, 500);
    Completion c;
    ASSERT_TRUE(awaitCompletion(bed, *p.cq1, c));
    EXPECT_FALSE(c.isSend);
    EXPECT_EQ(c.wrId, 1u);
    EXPECT_EQ(c.status, WcStatus::LengthError);
}

TEST(QpipVerbs, RnrHoldsUntilBufferPosted)
{
    QpipTestbed bed(2);
    RcPair p(bed);
    ASSERT_TRUE(p.ready());
    // Send with no receive posted: the firmware holds the message
    // un-ACKed, so no completion appears anywhere.
    std::copy_n(pattern(64).begin(), 64, p.buf0.begin());
    p.qp0->postSend(5, *p.mr0, 0, 64);
    bed.sim().runFor(50 * sim::oneMs);
    EXPECT_EQ(p.cq0->depth(), 0u);
    EXPECT_EQ(p.cq1->depth(), 0u);
    // Post the buffer: message lands and the sender completes.
    p.qp1->postRecv(6, *p.mr1, 0, 4096);
    Completion c;
    ASSERT_TRUE(awaitCompletion(bed, *p.cq1, c, 30 * sim::oneSec));
    EXPECT_EQ(c.wrId, 6u);
    EXPECT_EQ(c.status, WcStatus::Success);
    ASSERT_TRUE(awaitCompletion(bed, *p.cq0, c, 30 * sim::oneSec));
    EXPECT_EQ(c.wrId, 5u);
}

TEST(QpipVerbs, CompletionOrderMatchesPostingOrder)
{
    QpipTestbed bed(2);
    RcPair p(bed);
    ASSERT_TRUE(p.ready());
    for (std::uint64_t i = 0; i < 16; ++i)
        p.qp1->postRecv(100 + i, *p.mr1, i * 512, 512);
    for (std::uint64_t i = 0; i < 16; ++i)
        p.qp0->postSend(200 + i, *p.mr0, 0, 256);
    std::vector<std::uint64_t> send_order, recv_order;
    bed.sim().runUntilCondition(
        [&] {
            Completion c;
            while (p.cq0->poll(c))
                send_order.push_back(c.wrId);
            while (p.cq1->poll(c))
                recv_order.push_back(c.wrId);
            return send_order.size() == 16 && recv_order.size() == 16;
        },
        bed.sim().now() + 30 * sim::oneSec);
    ASSERT_EQ(send_order.size(), 16u);
    ASSERT_EQ(recv_order.size(), 16u);
    for (std::uint64_t i = 0; i < 16; ++i) {
        EXPECT_EQ(send_order[i], 200 + i);
        EXPECT_EQ(recv_order[i], 100 + i);
    }
}

TEST(QpipVerbs, WaitDeliversViaInterrupt)
{
    QpipTestbed bed(2);
    RcPair p(bed);
    ASSERT_TRUE(p.ready());
    p.qp1->postRecv(1, *p.mr1, 0, 1024);

    bool got = false;
    Completion got_c;
    p.cq1->wait([&](Completion c) {
        got = true;
        got_c = c;
    });
    // Nothing yet: the wait is armed, not polled.
    bed.sim().runFor(sim::oneMs);
    EXPECT_FALSE(got);

    p.qp0->postSend(2, *p.mr0, 0, 128);
    bed.sim().runUntilCondition([&] { return got; },
                                bed.sim().now() + 10 * sim::oneSec);
    ASSERT_TRUE(got);
    EXPECT_EQ(got_c.wrId, 1u);
    EXPECT_FALSE(got_c.isSend);
}

/** A completion callback that counts its own copies. */
struct CopyCountingCb
{
    std::size_t *copies;
    std::size_t *calls;

    CopyCountingCb(std::size_t *cp, std::size_t *cl)
        : copies(cp), calls(cl)
    {}
    CopyCountingCb(const CopyCountingCb &o)
        : copies(o.copies), calls(o.calls)
    {
        ++*copies;
    }
    CopyCountingCb(CopyCountingCb &&) noexcept = default;
    CopyCountingCb &operator=(const CopyCountingCb &) = delete;

    void operator()(Completion) const { ++*calls; }
};

TEST(QpipVerbs, WaitLoopNeverCopiesItsCallback)
{
    QpipTestbed bed(2);
    RcPair p(bed);
    ASSERT_TRUE(p.ready());
    constexpr std::size_t n = 8;
    for (std::size_t i = 0; i < n; ++i)
        p.qp1->postRecv(i, *p.mr1, i * 64, 64);

    std::size_t copies = 0, calls = 0;
    std::function<void(Completion)> cb(CopyCountingCb(&copies, &calls));
    const std::size_t wrapped = copies;
    waitLoop(*p.cq1, std::move(cb));
    for (std::size_t i = 0; i < n; ++i)
        p.qp0->postSend(100 + i, *p.mr0, i * 64, 64);
    ASSERT_TRUE(bed.sim().runUntilCondition(
        [&] { return calls == n; },
        bed.sim().now() + 10 * sim::oneSec));
    EXPECT_EQ(copies, wrapped);
}

TEST(QpipVerbs, UdpQpDropsWithoutPostedWr)
{
    QpipTestbed bed(2);
    auto &prov0 = bed.provider(0);
    auto &prov1 = bed.provider(1);
    auto cq0 = prov0.createCq();
    auto cq1 = prov1.createCq();
    std::vector<std::uint8_t> b0(4096), b1(4096);
    auto mr0 = prov0.registerMemory(b0);
    auto mr1 = prov1.registerMemory(b1);
    auto qp0 = prov0.createQp(nic::QpType::UnreliableUdp, cq0, cq0);
    auto qp1 = prov1.createQp(nic::QpType::UnreliableUdp, cq1, cq1);
    qp0->bind(6000);
    qp1->bind(6001);

    // No recv posted at qp1: the datagram is dropped silently —
    // unreliable service means the send still completes.
    qp0->postSend(1, *mr0, 0, 100, bed.addr(1, 6001));
    Completion c;
    ASSERT_TRUE(awaitCompletion(bed, *cq0, c));
    EXPECT_TRUE(c.isSend);
    EXPECT_EQ(c.status, WcStatus::Success);
    bed.sim().runFor(10 * sim::oneMs);
    EXPECT_EQ(cq1->depth(), 0u);
    EXPECT_EQ(bed.nicOf(1).udpNoWrDrops.value(), 1u);
}

TEST(QpipVerbs, UdpQpDeliversWithSourceAddress)
{
    QpipTestbed bed(2);
    auto &prov0 = bed.provider(0);
    auto &prov1 = bed.provider(1);
    auto cq0 = prov0.createCq();
    auto cq1 = prov1.createCq();
    std::vector<std::uint8_t> b0(4096), b1(4096);
    auto mr0 = prov0.registerMemory(b0);
    auto mr1 = prov1.registerMemory(b1);
    auto qp0 = prov0.createQp(nic::QpType::UnreliableUdp, cq0, cq0);
    auto qp1 = prov1.createQp(nic::QpType::UnreliableUdp, cq1, cq1);
    qp0->bind(6000);
    qp1->bind(6001);

    qp1->postRecv(9, *mr1, 0, 4096);
    auto msg = pattern(333);
    std::copy(msg.begin(), msg.end(), b0.begin());
    qp0->postSend(8, *mr0, 0, msg.size(), bed.addr(1, 6001));
    Completion c;
    ASSERT_TRUE(awaitCompletion(bed, *cq1, c));
    EXPECT_EQ(c.wrId, 9u);
    EXPECT_EQ(c.byteLen, msg.size());
    EXPECT_EQ(c.from, bed.addr(0, 6000));
    EXPECT_TRUE(std::equal(msg.begin(), msg.end(), b1.begin()));
}

TEST(QpipVerbs, TwoQpsOneCompletionQueue)
{
    QpipTestbed bed(3);
    // Host 0 runs two QPs (one to each peer) bound to a single CQ —
    // the grouping-by-CQ feature the paper highlights.
    auto &prov0 = bed.provider(0);
    auto cq = prov0.createCq();
    std::vector<std::uint8_t> buf(8192);
    auto mr = prov0.registerMemory(buf);

    // Peers just echo nothing; they only receive.
    std::vector<std::shared_ptr<verbs::CompletionQueue>> pcq;
    std::vector<std::shared_ptr<verbs::MemoryRegion>> pmr;
    std::vector<std::vector<std::uint8_t>> pbuf(2);
    std::vector<std::shared_ptr<verbs::QueuePair>> peer_qp(2);
    std::vector<std::shared_ptr<verbs::Acceptor>> acc;
    for (std::size_t i = 0; i < 2; ++i) {
        auto &prov = bed.provider(i + 1);
        pcq.push_back(prov.createCq());
        pbuf[i].resize(8192);
        pmr.push_back(prov.registerMemory(pbuf[i]));
        acc.push_back(std::make_shared<verbs::Acceptor>(
            prov, 700, pcq[i], pcq[i]));
        acc[i]->acceptOne([&, i](std::shared_ptr<verbs::QueuePair> q) {
            peer_qp[i] = q;
            q->postRecv(1, *pmr[i], 0, 8192);
        });
    }

    auto qp_a = prov0.createQp(nic::QpType::ReliableTcp, cq, cq);
    auto qp_b = prov0.createQp(nic::QpType::ReliableTcp, cq, cq);
    int connected = 0;
    qp_a->connect(bed.addr(1, 700), [&](bool ok) { connected += ok; });
    qp_b->connect(bed.addr(2, 700), [&](bool ok) { connected += ok; });
    bed.sim().runUntilCondition([&] { return connected == 2; },
                                10 * sim::oneSec);
    ASSERT_EQ(connected, 2);

    qp_a->postSend(100, *mr, 0, 64);
    qp_b->postSend(200, *mr, 64, 64);
    std::vector<std::pair<nic::QpNum, std::uint64_t>> seen;
    bed.sim().runUntilCondition(
        [&] {
            Completion c;
            while (cq->poll(c))
                seen.emplace_back(c.qp, c.wrId);
            return seen.size() == 2;
        },
        bed.sim().now() + 10 * sim::oneSec);
    ASSERT_EQ(seen.size(), 2u);
    // One completion per QP, both via the shared CQ.
    EXPECT_NE(seen[0].first, seen[1].first);
}

TEST(QpipVerbs, DisconnectFlushesPostedReceives)
{
    QpipTestbed bed(2);
    RcPair p(bed);
    ASSERT_TRUE(p.ready());
    p.qp1->postRecv(41, *p.mr1, 0, 512);
    p.qp1->postRecv(42, *p.mr1, 512, 512);
    p.qp0->disconnect();
    // Wait for the FIN exchange to close both ends and flush.
    std::vector<std::uint64_t> flushed;
    bed.sim().runUntilCondition(
        [&] {
            Completion c;
            while (p.cq1->poll(c)) {
                if (!c.isSend)
                    flushed.push_back(c.wrId);
            }
            return flushed.size() == 2;
        },
        bed.sim().now() + 30 * sim::oneSec);
    ASSERT_EQ(flushed.size(), 2u);
    EXPECT_EQ(flushed[0], 41u);
    EXPECT_EQ(flushed[1], 42u);
}

TEST(QpipVerbs, SgeBeyondRegionFailsSend)
{
    QpipTestbed bed(2);
    RcPair p(bed);
    ASSERT_TRUE(p.ready());
    EXPECT_DEATH(p.qp0->postSend(1, *p.mr0, p.buf0.size() - 10, 100),
                 "SGE out of region bounds");
}

TEST(QpipVerbs, SendQueueCapacityEnforced)
{
    QpipTestbed bed(2);
    auto &prov = bed.provider(0);
    auto cq = prov.createCq();
    std::vector<std::uint8_t> buf(1024);
    auto mr = prov.registerMemory(buf);
    auto qp = prov.createQp(nic::QpType::ReliableTcp, cq, cq, 4, 4);
    // Not connected: WRs queue in host memory up to the cap.
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(qp->postSend(i, *mr, 0, 16));
    EXPECT_FALSE(qp->postSend(99, *mr, 0, 16));
}

TEST(QpipNicQpTable, DeadAndUnknownNumbersMissAndNumbersAreNotReused)
{
    QpipTestbed bed(2);
    auto &prov = bed.provider(0);
    auto &nic = bed.nicOf(0);
    auto cq = prov.createCq();
    auto a = prov.createQp(nic::QpType::UnreliableUdp, cq, cq);
    auto b = prov.createQp(nic::QpType::UnreliableUdp, cq, cq);
    const nic::QpNum dead = a->num();
    const nic::QpNum live = b->num();
    a.reset(); // destroyQp

    // A new QP gets a fresh number, never the destroyed one's.
    auto c = prov.createQp(nic::QpType::UnreliableUdp, cq, cq);
    EXPECT_GT(c->num(), live);
    EXPECT_NE(c->num(), dead);

    // The live QPs resolve (bindLocal dies on an unknown number)...
    nic.bindLocal(live, 700);
    nic.bindLocal(c->num(), 701);
    // ...while a destroyed QP, numbers never created (0 is reserved)
    // and the number one past the newest QP all miss.
    for (const nic::QpNum q : {dead, nic::invalidQp, c->num() + 1,
                               nic::QpNum{1} << 20}) {
        EXPECT_EQ(nic.connectionOf(q), nullptr) << q;
        EXPECT_DEATH(nic.bindLocal(q, 702), "bindLocal: unknown qp")
            << q;
    }
}

TEST(QpipNicCqTable, DestroyedCqsMissAndNumbersAreNotReused)
{
    QpipTestbed bed(2);
    auto &prov = bed.provider(0);
    auto &nic = bed.nicOf(0);
    auto a = prov.createCq();
    auto b = prov.createCq();
    const nic::CqNum dead = a->num();
    a.reset(); // destroyCq

    auto c = prov.createCq();
    EXPECT_GT(c->num(), b->num());
    EXPECT_TRUE(nic.hasCq(b->num()));
    EXPECT_TRUE(nic.hasCq(c->num()));
    for (const nic::CqNum q : {dead, nic::invalidCq, c->num() + 1})
        EXPECT_FALSE(nic.hasCq(q)) << q;
}

TEST(QpipNicStats, FirmwareOccupancyAccrues)
{
    QpipTestbed bed(2);
    RcPair p(bed);
    ASSERT_TRUE(p.ready());
    p.qp1->postRecv(1, *p.mr1, 0, 8192);
    p.qp0->postSend(2, *p.mr0, 0, 4096);
    Completion c;
    ASSERT_TRUE(awaitCompletion(bed, *p.cq1, c));
    auto &fw = bed.nicOf(0).fw();
    EXPECT_GT(fw.busyTotal(), 0u);
    EXPECT_GT(fw.stageStat(nic::FwStage::GetWr).count(), 0u);
    EXPECT_GT(fw.stageStat(nic::FwStage::GetData).count(), 0u);
    EXPECT_GT(fw.stageStat(nic::FwStage::BuildTcpHdr).count(), 0u);
    auto &fw1 = bed.nicOf(1).fw();
    EXPECT_GT(fw1.stageStat(nic::FwStage::PutData).count(), 0u);
    EXPECT_GT(fw1.stageStat(nic::FwStage::TcpParse).count(), 0u);
}

// ---------------------------------------------------------------------
// Batched posting, doorbell coalescing and completion moderation
// ---------------------------------------------------------------------

TEST(QpipBatching, PostSendListDeliversAllWithOneDoorbell)
{
    QpipTestbed bed(2);
    RcPair p(bed);
    ASSERT_TRUE(p.ready());

    constexpr std::size_t chain = 4;
    constexpr std::size_t bytes = 256;
    auto msg = pattern(chain * bytes);
    std::copy(msg.begin(), msg.end(), p.buf0.begin());
    for (std::size_t i = 0; i < chain; ++i)
        p.qp1->postRecv(100 + i, *p.mr1, i * bytes, bytes);

    const auto &db = bed.nicOf(0).doorbells();
    auto &fw = bed.nicOf(0).fw();
    const std::uint64_t rings0 = db.rings.value();
    const std::uint64_t batched0 = db.batchedWrs.value();
    const std::uint64_t dbPasses0 =
        fw.stageStat(nic::FwStage::DoorbellProcess).count();
    const std::uint64_t schedPasses0 =
        fw.stageStat(nic::FwStage::Schedule).count();

    std::vector<verbs::SendWrSpec> specs;
    for (std::size_t i = 0; i < chain; ++i)
        specs.push_back({200 + i, p.mr0.get(), i * bytes, bytes, {}});
    ASSERT_TRUE(p.qp0->postSendList(specs));

    // The whole chain rode one doorbell: one PCI ring, one
    // DoorbellProcess pass, one Schedule pass.
    std::size_t received = 0, acked = 0;
    waitLoop(*p.cq1, [&](Completion c) {
        if (!c.isSend)
            ++received;
    });
    waitLoop(*p.cq0, [&](Completion c) {
        if (c.isSend)
            ++acked;
    });
    ASSERT_TRUE(bed.sim().runUntilCondition(
        [&] { return received == chain && acked == chain; },
        bed.sim().now() + 10 * sim::oneSec));

    EXPECT_EQ(db.rings.value() - rings0, 1u);
    EXPECT_EQ(db.batchedWrs.value() - batched0, chain);
    EXPECT_EQ(fw.stageStat(nic::FwStage::DoorbellProcess).count() -
                  dbPasses0,
              1u);
    EXPECT_EQ(fw.stageStat(nic::FwStage::Schedule).count() -
                  schedPasses0,
              1u);
    EXPECT_TRUE(std::equal(msg.begin(), msg.end(), p.buf1.begin()));
}

TEST(QpipBatching, PostSendListIsAllOrNothing)
{
    QpipTestbed bed(2);
    auto &prov = bed.provider(0);
    auto cq = prov.createCq();
    std::vector<std::uint8_t> buf(1024);
    auto mr = prov.registerMemory(buf);
    auto qp = prov.createQp(nic::QpType::ReliableTcp, cq, cq, 4, 4);

    std::vector<verbs::SendWrSpec> five(
        5, verbs::SendWrSpec{1, mr.get(), 0, 16, {}});
    EXPECT_FALSE(qp->postSendList(five));
    EXPECT_EQ(qp->sendQueueDepth(), 0u); // nothing partially posted

    std::vector<verbs::SendWrSpec> four(
        4, verbs::SendWrSpec{2, mr.get(), 0, 16, {}});
    EXPECT_TRUE(qp->postSendList(four));
    EXPECT_EQ(qp->sendQueueDepth(), 4u);
    EXPECT_TRUE(qp->postSendList({})); // empty chain is a no-op
    EXPECT_EQ(qp->sendQueueDepth(), 4u);
}

TEST(QpipBatching, CoalescingWindowFoldsBackToBackPosts)
{
    // A burst of singleton posts outpaces the serialized firmware, so
    // rings to the same send queue land while earlier records still
    // sit in the FIFO — the window folds them and every message still
    // arrives (the drain's host-ring shadows stay authoritative).
    nic::QpipNicParams params;
    params.doorbellCoalesceCycles = 1330; // ~10 us fold window
    QpipTestbed bed(2, qpipNativeMtu, 1, params);
    RcPair p(bed);
    ASSERT_TRUE(p.ready());

    constexpr std::size_t msgs = 8;
    for (std::size_t i = 0; i < msgs; ++i)
        p.qp1->postRecv(100 + i, *p.mr1, i * 64, 64);
    for (std::size_t i = 0; i < msgs; ++i)
        ASSERT_TRUE(p.qp0->postSend(200 + i, *p.mr0, i * 64, 64));

    std::size_t received = 0;
    waitLoop(*p.cq1, [&](Completion c) {
        if (!c.isSend)
            ++received;
    });
    ASSERT_TRUE(bed.sim().runUntilCondition(
        [&] { return received == msgs; },
        bed.sim().now() + 10 * sim::oneSec));

    const auto &db = bed.nicOf(0).doorbells();
    EXPECT_GT(db.coalesced.value(), 0u);
    EXPECT_LT(db.rings.value() - db.coalesced.value(),
              db.rings.value());
}

TEST(QpipBatching, TinyDoorbellCapBurstStillCompletes)
{
    // With a 2-deep FIFO most of a burst's doorbells overflow, but
    // any later drain recomputes freshness from the host ring, so no
    // WR is lost — overflow costs notifications, not correctness.
    nic::QpipNicParams params;
    params.doorbellCap = 2;
    QpipTestbed bed(2, qpipNativeMtu, 1, params);
    RcPair p(bed);
    ASSERT_TRUE(p.ready());

    constexpr std::size_t msgs = 8;
    for (std::size_t i = 0; i < msgs; ++i)
        p.qp1->postRecv(100 + i, *p.mr1, i * 64, 64);
    for (std::size_t i = 0; i < msgs; ++i)
        ASSERT_TRUE(p.qp0->postSend(200 + i, *p.mr0, i * 64, 64));

    std::size_t received = 0;
    waitLoop(*p.cq1, [&](Completion c) {
        if (!c.isSend)
            ++received;
    });
    ASSERT_TRUE(bed.sim().runUntilCondition(
        [&] { return received == msgs; },
        bed.sim().now() + 10 * sim::oneSec));
    EXPECT_GT(bed.nicOf(0).doorbells().overflows.value(), 0u);
}

TEST(QpipBatching, CqModerationNotifiesAfterCount)
{
    nic::QpipNicParams params;
    params.cqModerationCount = 4;
    params.cqModerationCycles = 133'000; // 1 ms: count triggers first
    QpipTestbed bed(2, qpipNativeMtu, 1, params);
    RcPair p(bed);
    ASSERT_TRUE(p.ready());

    constexpr std::size_t msgs = 8;
    for (std::size_t i = 0; i < msgs; ++i)
        p.qp1->postRecv(100 + i, *p.mr1, i * 64, 64);

    std::size_t received = 0;
    waitLoop(*p.cq1, [&](Completion c) {
        if (!c.isSend)
            ++received;
    });
    for (std::size_t i = 0; i < msgs; ++i)
        ASSERT_TRUE(p.qp0->postSend(200 + i, *p.mr0, i * 64, 64));
    ASSERT_TRUE(bed.sim().runUntilCondition(
        [&] { return received == msgs; },
        bed.sim().now() + 10 * sim::oneSec));

    // 8 receives behind a 4-CQE threshold: fewer interrupts than
    // messages, and some CQEs recorded as deferred.
    auto &rx = bed.nicOf(1);
    EXPECT_GT(rx.cqCoalesced.value(), 0u);
    EXPECT_LT(rx.cqNotifies.value(), msgs);
    EXPECT_GE(rx.cqNotifies.value(), 1u);
}

TEST(QpipBatching, CqModerationTimeoutDeliversShortBatch)
{
    // Fewer CQEs than the count threshold: the moderation timer must
    // flush them, or the blocked host would hang forever.
    nic::QpipNicParams params;
    params.cqModerationCount = 64;
    params.cqModerationCycles = 13'300; // 100 us timeout
    QpipTestbed bed(2, qpipNativeMtu, 1, params);
    RcPair p(bed);
    ASSERT_TRUE(p.ready());

    p.qp1->postRecv(11, *p.mr1, 0, 64);
    p.qp1->postRecv(12, *p.mr1, 64, 64);

    std::size_t received = 0;
    waitLoop(*p.cq1, [&](Completion c) {
        if (!c.isSend)
            ++received;
    });
    ASSERT_TRUE(p.qp0->postSend(21, *p.mr0, 0, 64));
    ASSERT_TRUE(p.qp0->postSend(22, *p.mr0, 64, 64));
    ASSERT_TRUE(bed.sim().runUntilCondition(
        [&] { return received == 2; },
        bed.sim().now() + 10 * sim::oneSec));
    EXPECT_GE(bed.nicOf(1).cqNotifies.value(), 1u);
    EXPECT_GT(bed.nicOf(1).cqCoalesced.value(), 0u);
}
