/**
 * @file
 * One-sided RDMA and shared-receive-queue tests: Write/Read round
 * trips (pcap-verified against the wire), rkey/bounds protection
 * (remote-access-error completions, untouched target memory), SRQ
 * fan-in from many QPs, SRQ exhaustion (RNR hold on reliable QPs,
 * drop accounting on UD), which attached QPs an SRQ replenish wakes
 * and in what order, the reliable-datagram (RUD) shim
 * (in-order ack-gated delivery, many-peer fan-in, RNR holds instead
 * of drops on SRQ exhaustion), and the QP context cache's
 * hit/miss/evict bookkeeping in both entry and byte denominations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <list>
#include <random>
#include <unordered_map>

#include "apps/testbed.hh"
#include "apps/verbs_util.hh"
#include "net/pcap.hh"

using namespace qpip;
using namespace qpip::apps;
using verbs::Completion;
using verbs::QpAttrs;
using verbs::WcStatus;

namespace {

std::vector<std::uint8_t>
pattern(std::size_t n, std::uint8_t seed = 7)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(seed * 13 + i * 3 + 1);
    return v;
}

/** Connected RC pair with RDMA framing enabled on both ends. */
struct RdmaPair
{
    explicit RdmaPair(QpipTestbed &bed, nic::MrAccess remote_access,
                      std::size_t buf_bytes = 1 << 16,
                      std::uint32_t window = 1 << 16)
        : bed(bed)
    {
        cq0 = bed.provider(0).createCq();
        cq1 = bed.provider(1).createCq();
        buf0 = std::vector<std::uint8_t>(buf_bytes);
        buf1 = std::vector<std::uint8_t>(buf_bytes);
        mr0 = bed.provider(0).registerMemory(buf0);
        mr1 = bed.provider(1).registerMemory(buf1, remote_access);

        QpAttrs attrs;
        attrs.rdmaWindowBytes = window;
        acceptor = std::make_shared<verbs::Acceptor>(
            bed.provider(1), 700, cq1, cq1);
        acceptor->acceptOne(
            [this](std::shared_ptr<verbs::QueuePair> q) {
                qp1 = std::move(q);
            },
            attrs);
        qp0 = bed.provider(0).createQp(nic::QpType::ReliableTcp, cq0,
                                       cq0, attrs);
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

bool
awaitCompletion(QpipTestbed &bed, verbs::CompletionQueue &cq,
                Completion &out,
                sim::Tick deadline = 10 * sim::oneSec)
{
    bed.sim().runUntilCondition([&] { return cq.depth() > 0; },
                                bed.sim().now() + deadline);
    return cq.poll(out);
}

/** Tap both directions of every fabric edge. */
std::vector<std::unique_ptr<net::PcapWriter>>
tapAllEdges(net::Fabric &fabric)
{
    std::vector<std::unique_ptr<net::PcapWriter>> taps;
    for (const auto &e : fabric.edges()) {
        for (int side = 0; side < 2; ++side) {
            taps.push_back(std::make_unique<net::PcapWriter>());
            net::tapLinkSide(*e.link, side, *taps.back());
        }
    }
    return taps;
}

/** Whether @p needle occurs in any tapped capture. */
bool
capturesContain(
    const std::vector<std::unique_ptr<net::PcapWriter>> &taps,
    const std::vector<std::uint8_t> &needle)
{
    for (const auto &t : taps) {
        const auto &hay = t->bytes();
        if (std::search(hay.begin(), hay.end(), needle.begin(),
                        needle.end()) != hay.end()) {
            return true;
        }
    }
    return false;
}

} // namespace

// ---------------------------------------------------------------------
// One-sided round trips
// ---------------------------------------------------------------------

TEST(Rdma, WriteRoundTripPcapVerified)
{
    QpipTestbed bed(2);
    const auto taps = tapAllEdges(bed.fabric());
    RdmaPair p(bed, nic::accessRemoteRw);
    ASSERT_TRUE(p.ready());

    const auto msg = pattern(4096);
    std::copy(msg.begin(), msg.end(), p.buf0.begin());
    ASSERT_TRUE(p.qp0->postWrite(42, *p.mr0, 0, msg.size(),
                                 p.mr1->key(), 256));

    Completion c;
    ASSERT_TRUE(awaitCompletion(bed, *p.cq0, c));
    EXPECT_TRUE(c.isSend);
    EXPECT_EQ(c.wrId, 42u);
    EXPECT_EQ(c.opcode, nic::WrOpcode::RdmaWrite);
    EXPECT_EQ(c.status, WcStatus::Success);
    EXPECT_EQ(c.byteLen, msg.size());

    // One-sided: the target landed at raddr with no responder CQE.
    EXPECT_TRUE(std::equal(msg.begin(), msg.end(),
                           p.buf1.begin() + 256));
    EXPECT_EQ(p.cq1->depth(), 0u);
    EXPECT_EQ(bed.nicOf(1).rdmaWrites.value(), 1u);
    EXPECT_EQ(bed.nicOf(1).rdmaRemoteErrors.value(), 0u);

    // The payload really crossed the wire (shows up in the capture).
    EXPECT_TRUE(capturesContain(taps, msg));
}

TEST(Rdma, ReadRoundTripPcapVerified)
{
    QpipTestbed bed(2);
    const auto taps = tapAllEdges(bed.fabric());
    RdmaPair p(bed, nic::accessRemoteRw);
    ASSERT_TRUE(p.ready());

    const auto remote = pattern(2048, 11);
    std::copy(remote.begin(), remote.end(), p.buf1.begin() + 512);
    ASSERT_TRUE(p.qp0->postRead(43, *p.mr0, 64, remote.size(),
                                p.mr1->key(), 512));

    Completion c;
    ASSERT_TRUE(awaitCompletion(bed, *p.cq0, c));
    EXPECT_TRUE(c.isSend);
    EXPECT_EQ(c.wrId, 43u);
    EXPECT_EQ(c.opcode, nic::WrOpcode::RdmaRead);
    EXPECT_EQ(c.status, WcStatus::Success);
    EXPECT_EQ(c.byteLen, remote.size());

    EXPECT_TRUE(std::equal(remote.begin(), remote.end(),
                           p.buf0.begin() + 64));
    EXPECT_EQ(p.cq1->depth(), 0u);
    EXPECT_EQ(bed.nicOf(1).rdmaReads.value(), 1u);

    // The read data crossed the wire in the response direction.
    EXPECT_TRUE(capturesContain(taps, remote));
}

TEST(Rdma, TwoSidedSendStillWorksOnRdmaQp)
{
    QpipTestbed bed(2);
    RdmaPair p(bed, nic::accessRemoteRw);
    ASSERT_TRUE(p.ready());

    const auto msg = pattern(1024, 5);
    std::copy(msg.begin(), msg.end(), p.buf0.begin());
    p.qp1->postRecv(1, *p.mr1, 0, 4096);
    p.qp0->postSend(2, *p.mr0, 0, msg.size());

    Completion c;
    ASSERT_TRUE(awaitCompletion(bed, *p.cq1, c));
    EXPECT_FALSE(c.isSend);
    EXPECT_EQ(c.status, WcStatus::Success);
    EXPECT_EQ(c.byteLen, msg.size());
    EXPECT_TRUE(std::equal(msg.begin(), msg.end(), p.buf1.begin()));
}

// ---------------------------------------------------------------------
// Protection: rkey / bounds / rights violations
// ---------------------------------------------------------------------

TEST(Rdma, WriteWithoutRemoteWriteRightsFails)
{
    QpipTestbed bed(2);
    // Target registered local-only: remote write must be refused.
    RdmaPair p(bed, nic::accessLocal);
    ASSERT_TRUE(p.ready());

    const auto msg = pattern(512);
    std::copy(msg.begin(), msg.end(), p.buf0.begin());
    ASSERT_TRUE(
        p.qp0->postWrite(1, *p.mr0, 0, msg.size(), p.mr1->key(), 0));

    Completion c;
    ASSERT_TRUE(awaitCompletion(bed, *p.cq0, c));
    EXPECT_EQ(c.status, WcStatus::RemoteAccessError);
    EXPECT_EQ(c.opcode, nic::WrOpcode::RdmaWrite);
    EXPECT_EQ(bed.nicOf(1).rdmaRemoteErrors.value(), 1u);
    // Target memory untouched.
    EXPECT_TRUE(std::all_of(p.buf1.begin(), p.buf1.end(),
                            [](std::uint8_t b) { return b == 0; }));
}

TEST(Rdma, WriteOutOfBoundsFails)
{
    QpipTestbed bed(2);
    RdmaPair p(bed, nic::accessRemoteRw, 4096);
    ASSERT_TRUE(p.ready());

    const auto msg = pattern(1024);
    std::copy(msg.begin(), msg.end(), p.buf0.begin());
    // raddr + length overruns the 4 KB target region.
    ASSERT_TRUE(p.qp0->postWrite(1, *p.mr0, 0, msg.size(),
                                 p.mr1->key(), 4096 - 100));

    Completion c;
    ASSERT_TRUE(awaitCompletion(bed, *p.cq0, c));
    EXPECT_EQ(c.status, WcStatus::RemoteAccessError);
    EXPECT_EQ(bed.nicOf(1).rdmaRemoteErrors.value(), 1u);
}

// A remote address near 2^64 must not wrap the bounds check around to
// a small end offset and land before the region.
TEST(Rdma, WriteWithWrappingRaddrFails)
{
    QpipTestbed bed(2);
    RdmaPair p(bed, nic::accessRemoteRw, 4096);
    ASSERT_TRUE(p.ready());

    const auto msg = pattern(16);
    std::copy(msg.begin(), msg.end(), p.buf0.begin());
    const auto target = p.buf1;
    ASSERT_TRUE(p.qp0->postWrite(1, *p.mr0, 0, msg.size(), p.mr1->key(),
                                 ~std::uint64_t{0} - 7));

    Completion c;
    ASSERT_TRUE(awaitCompletion(bed, *p.cq0, c));
    EXPECT_EQ(c.status, WcStatus::RemoteAccessError);
    EXPECT_EQ(bed.nicOf(1).rdmaRemoteErrors.value(), 1u);
    EXPECT_EQ(p.buf1, target);
}

TEST(Rdma, ReadWithWrappingRaddrFails)
{
    QpipTestbed bed(2);
    RdmaPair p(bed, nic::accessRemoteRw, 4096);
    ASSERT_TRUE(p.ready());

    std::fill(p.buf1.begin(), p.buf1.end(), 0x5a);
    const auto target = p.buf0;
    ASSERT_TRUE(p.qp0->postRead(1, *p.mr0, 0, 16, p.mr1->key(),
                                ~std::uint64_t{0} - 7));

    Completion c;
    ASSERT_TRUE(awaitCompletion(bed, *p.cq0, c));
    EXPECT_EQ(c.status, WcStatus::RemoteAccessError);
    EXPECT_EQ(c.opcode, nic::WrOpcode::RdmaRead);
    EXPECT_EQ(bed.nicOf(1).rdmaRemoteErrors.value(), 1u);
    EXPECT_EQ(p.buf0, target);
}

TEST(Rdma, ReadWithBogusRkeyFails)
{
    QpipTestbed bed(2);
    RdmaPair p(bed, nic::accessRemoteRw);
    ASSERT_TRUE(p.ready());

    ASSERT_TRUE(p.qp0->postRead(9, *p.mr0, 0, 128,
                                p.mr1->key() + 999, 0));
    Completion c;
    ASSERT_TRUE(awaitCompletion(bed, *p.cq0, c));
    EXPECT_EQ(c.status, WcStatus::RemoteAccessError);
    EXPECT_EQ(c.opcode, nic::WrOpcode::RdmaRead);
    EXPECT_EQ(bed.nicOf(1).rdmaRemoteErrors.value(), 1u);
    EXPECT_EQ(bed.nicOf(1).rdmaReads.value(), 0u);
}

// ---------------------------------------------------------------------
// Shared receive queues
// ---------------------------------------------------------------------

TEST(Srq, FanInFromManyQps)
{
    QpipTestbed bed(2);
    auto &sender = bed.provider(0);
    auto &server = bed.provider(1);

    auto scq = server.createCq();
    auto srq = server.createSrq();
    std::vector<std::uint8_t> rbuf(1 << 16);
    auto rmr = server.registerMemory(rbuf);

    constexpr std::size_t numQps = 8;
    constexpr std::size_t msgBytes = 256;
    // One shared pool feeds all QPs: slot i of the buffer.
    for (std::size_t i = 0; i < numQps; ++i)
        ASSERT_TRUE(srq->postRecv(100 + i, *rmr, i * 1024, 1024));
    EXPECT_EQ(srq->depth(), numQps);

    QpAttrs server_attrs;
    server_attrs.srq = srq;
    verbs::Acceptor acc(server, 700, scq, scq);
    std::vector<std::shared_ptr<verbs::QueuePair>> serverQps;
    for (std::size_t i = 0; i < numQps; ++i) {
        acc.acceptOne(
            [&](std::shared_ptr<verbs::QueuePair> q) {
                serverQps.push_back(std::move(q));
            },
            server_attrs);
    }

    auto ccq = sender.createCq();
    std::vector<std::uint8_t> sbuf(numQps * msgBytes);
    auto smr = sender.registerMemory(sbuf);
    std::vector<std::shared_ptr<verbs::QueuePair>> clientQps;
    std::size_t connected = 0;
    for (std::size_t i = 0; i < numQps; ++i) {
        auto qp = sender.createQp(nic::QpType::ReliableTcp, ccq, ccq);
        qp->connect(bed.addr(1, 700),
                    [&](bool ok) { connected += ok ? 1 : 0; });
        clientQps.push_back(std::move(qp));
    }
    ASSERT_TRUE(bed.sim().runUntilCondition(
        [&] { return connected == numQps; },
        bed.sim().now() + 20 * sim::oneSec));

    // Every client sends one distinct message.
    for (std::size_t i = 0; i < numQps; ++i) {
        auto msg = pattern(msgBytes, static_cast<std::uint8_t>(i));
        std::copy(msg.begin(), msg.end(),
                  sbuf.begin() + i * msgBytes);
        ASSERT_TRUE(clientQps[i]->postSend(i, *smr, i * msgBytes,
                                           msgBytes));
    }

    // All arrive as receive completions on the shared CQ.
    std::size_t received = 0;
    std::vector<bool> slotUsed(numQps, false);
    while (received < numQps) {
        Completion c;
        ASSERT_TRUE(awaitCompletion(bed, *scq, c, 20 * sim::oneSec));
        if (c.isSend)
            continue;
        EXPECT_EQ(c.status, WcStatus::Success);
        EXPECT_EQ(c.byteLen, msgBytes);
        ASSERT_GE(c.wrId, 100u);
        ASSERT_LT(c.wrId, 100u + numQps);
        slotUsed[c.wrId - 100] = true;
        ++received;
    }
    // The pool drained WR-per-message, in ring order.
    EXPECT_TRUE(std::all_of(slotUsed.begin(), slotUsed.end(),
                            [](bool b) { return b; }));
    EXPECT_EQ(srq->depth(), 0u);
    EXPECT_EQ(bed.nicOf(1).srqEmptyDrops.value(), 0u);
}

TEST(Srq, ExhaustionHoldsTcpMessagesUntilReposted)
{
    QpipTestbed bed(2);
    auto &sender = bed.provider(0);
    auto &server = bed.provider(1);

    auto scq = server.createCq();
    auto srq = server.createSrq();
    std::vector<std::uint8_t> rbuf(1 << 16);
    auto rmr = server.registerMemory(rbuf);
    // One 512-byte WR: enough advertised window for both messages to
    // be transmitted, but only one can land.
    ASSERT_TRUE(srq->postRecv(100, *rmr, 0, 512));

    QpAttrs server_attrs;
    server_attrs.srq = srq;
    verbs::Acceptor acc(server, 700, scq, scq);
    std::vector<std::shared_ptr<verbs::QueuePair>> serverQps;
    for (int i = 0; i < 2; ++i) {
        acc.acceptOne(
            [&](std::shared_ptr<verbs::QueuePair> q) {
                serverQps.push_back(std::move(q));
            },
            server_attrs);
    }

    auto ccq = sender.createCq();
    std::vector<std::uint8_t> sbuf(512);
    auto smr = sender.registerMemory(sbuf);
    std::vector<std::shared_ptr<verbs::QueuePair>> clientQps;
    std::size_t connected = 0;
    for (int i = 0; i < 2; ++i) {
        auto qp = sender.createQp(nic::QpType::ReliableTcp, ccq, ccq);
        qp->connect(bed.addr(1, 700),
                    [&](bool ok) { connected += ok ? 1 : 0; });
        clientQps.push_back(std::move(qp));
    }
    ASSERT_TRUE(bed.sim().runUntilCondition(
        [&] { return connected == 2; },
        bed.sim().now() + 20 * sim::oneSec));

    // Both clients send; the single WR serves the first arrival and
    // the second message is held un-ACKed (RNR), not dropped.
    ASSERT_TRUE(clientQps[0]->postSend(0, *smr, 0, 200));
    ASSERT_TRUE(clientQps[1]->postSend(1, *smr, 200, 200));

    Completion c;
    ASSERT_TRUE(awaitCompletion(bed, *scq, c, 20 * sim::oneSec));
    while (c.isSend)
        ASSERT_TRUE(awaitCompletion(bed, *scq, c, 20 * sim::oneSec));
    EXPECT_EQ(c.wrId, 100u);
    bed.sim().runFor(200 * sim::oneMs);
    EXPECT_GE(bed.nicOf(1).srqRnrHolds.value(), 1u);
    EXPECT_EQ(srq->depth(), 0u);

    // Reposting frees the held message.
    ASSERT_TRUE(srq->postRecv(101, *rmr, 1024, 512));
    ASSERT_TRUE(awaitCompletion(bed, *scq, c, 20 * sim::oneSec));
    while (c.isSend)
        ASSERT_TRUE(awaitCompletion(bed, *scq, c, 20 * sim::oneSec));
    EXPECT_EQ(c.wrId, 101u);
    EXPECT_EQ(c.status, WcStatus::Success);
}

TEST(Srq, UdExhaustionDropsAndAccounts)
{
    QpipTestbed bed(2);
    auto &sender = bed.provider(0);
    auto &server = bed.provider(1);

    auto scq = server.createCq();
    auto ccq = sender.createCq();
    auto srq = server.createSrq();
    std::vector<std::uint8_t> rbuf(8192), sbuf(8192);
    auto rmr = server.registerMemory(rbuf);
    auto smr = sender.registerMemory(sbuf);

    QpAttrs attrs;
    attrs.srq = srq;
    auto qs =
        server.createQp(nic::QpType::UnreliableUdp, scq, scq, attrs);
    qs->bind(9000);
    auto qc = sender.createQp(nic::QpType::UnreliableUdp, ccq, ccq);
    qc->bind(9001);

    // SRQ empty: the datagram is dropped and accounted.
    ASSERT_TRUE(qc->postSend(1, *smr, 0, 256, bed.addr(1, 9000)));
    bed.sim().runFor(100 * sim::oneMs);
    EXPECT_EQ(bed.nicOf(1).srqEmptyDrops.value(), 1u);
    EXPECT_EQ(scq->depth(), 0u); // nothing delivered
    Completion c;
    ASSERT_TRUE(ccq->poll(c)); // the client's send CQE
    EXPECT_TRUE(c.isSend);

    // With a WR posted, delivery works.
    ASSERT_TRUE(srq->postRecv(7, *rmr, 0, 4096));
    ASSERT_TRUE(qc->postSend(2, *smr, 0, 256, bed.addr(1, 9000)));
    ASSERT_TRUE(awaitCompletion(bed, *scq, c, 10 * sim::oneSec));
    while (c.isSend)
        ASSERT_TRUE(awaitCompletion(bed, *scq, c, 10 * sim::oneSec));
    EXPECT_EQ(c.wrId, 7u);
    EXPECT_EQ(c.byteLen, 256u);
}

namespace {

/** FNV-1a over every tapped capture, in tap order. */
std::uint64_t
captureDigest(const std::vector<std::unique_ptr<net::PcapWriter>> &taps)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const auto &t : taps) {
        for (std::uint8_t b : t->bytes()) {
            h ^= b;
            h *= 1099511628211ull;
        }
    }
    return h;
}

/**
 * SRQ replenish wake harness: 64 RC QPs plus one RUD QP (attached in
 * the middle of the RC QPs) share a small SRQ that a stingy
 * replenisher refills a few WRs at a time. The opening burst far
 * outruns the posted WRs, so RC QPs and RUD peers pile up RNR holds,
 * closed windows reopen with window-update ACKs, and replenishes
 * smaller than the set of holders run the SRQ dry part-way through
 * the wake sweep. The resulting counters and capture digest pin which
 * attached QPs a replenish wakes and in what order.
 */
struct WakeFanIn
{
    static constexpr std::size_t numRc = 64;
    static constexpr std::size_t numPeers = 8;
    static constexpr std::size_t rcMsgs = 3;  ///< per client RC QP
    static constexpr std::size_t rudMsgs = 4; ///< per RUD peer
    static constexpr std::size_t wrBytes = 256;
    static constexpr std::size_t slots = 64;

    explicit WakeFanIn(QpipTestbed &b)
        : bed(b), taps(tapAllEdges(b.fabric())),
          server(b.provider(1)), client(b.provider(0)),
          scq(server.createCq(1 << 14)), ccq(client.createCq(1 << 14)),
          srq(server.createSrq(1 << 10)), rbuf(slots * wrBytes),
          sbuf(1 << 12), rmr(server.registerMemory(rbuf)),
          smr(client.registerMemory(sbuf)),
          acc(server, 700, scq, scq)
    {
        for (std::size_t i = 0; i < sbuf.size(); ++i)
            sbuf[i] = static_cast<std::uint8_t>(i * 7 + 3);
        for (std::size_t i = 0; i < 4; ++i)
            postOne();

        QpAttrs attrs;
        attrs.srq = srq;
        for (std::size_t i = 0; i < numRc; ++i) {
            if (i == numRc / 2) {
                rudQp = server.createQp(nic::QpType::ReliableDatagram,
                                        scq, scq, attrs);
                rudQp->bind(800);
            }
            acceptOne();
        }
        for (std::size_t i = 0; i < numPeers; ++i) {
            auto qp = client.createQp(nic::QpType::ReliableDatagram,
                                      ccq, ccq);
            qp->bind(static_cast<std::uint16_t>(2000 + i));
            peers.push_back(std::move(qp));
        }
        for (std::size_t i = 0; i < numRc; ++i)
            connectClient(false);

        waitLoop(*scq, [this](Completion c) {
            if (!c.isSend && c.status == WcStatus::Success)
                ++received;
        });
        waitLoop(*ccq, [this](Completion c) {
            if (c.isSend)
                ++sendsDone;
        });
        bed.sim().runUntilCondition(
            [this] {
                return connected == numRc && serverQps.size() == numRc;
            },
            bed.sim().now() + 20 * sim::oneSec);
        for (std::size_t i = 0; i < numRc; ++i)
            sendBurst(*clientQps[i], i);
        for (std::size_t p = 0; p < numPeers; ++p) {
            for (std::size_t k = 0; k < rudMsgs; ++k) {
                const std::size_t len = 32 + (p * 13 + k * 17) % 160;
                peers[p]->postSend(1000 + p * rudMsgs + k, *smr,
                                   p * 64, len, bed.addr(1, 800));
                ++sendsPosted;
            }
        }
    }

    void
    acceptOne()
    {
        QpAttrs attrs;
        attrs.srq = srq;
        acc.acceptOne(
            [this](std::shared_ptr<verbs::QueuePair> q) {
                serverQps.push_back(std::move(q));
            },
            attrs);
    }

    /** Connect one more client RC QP; @p send: burst once connected. */
    void
    connectClient(bool send)
    {
        auto qp = client.createQp(nic::QpType::ReliableTcp, ccq, ccq);
        const std::size_t idx = clientQps.size();
        qp->connect(bed.addr(1, 700), [this, idx, send](bool ok) {
            connected += ok ? 1 : 0;
            if (ok && send)
                sendBurst(*clientQps[idx], idx);
        });
        clientQps.push_back(std::move(qp));
    }

    void
    sendBurst(verbs::QueuePair &qp, std::size_t idx)
    {
        for (std::size_t k = 0; k < rcMsgs; ++k) {
            const std::size_t len = 64 + (idx * 7 + k * 31) % 137;
            qp.postSend(idx * rcMsgs + k, *smr, (idx % 16) * 128, len);
            ++sendsPosted;
        }
    }

    void
    postOne()
    {
        srq->postRecv(posted, *rmr, (posted % slots) * wrBytes, wrBytes);
        ++posted;
    }

    /**
     * One replenish step: 1, 2, 3 or 5 WRs, as singleton posts (one
     * doorbell, hence one wake sweep, each) on even rounds and as one
     * chained post on odd rounds; skipped while the SRQ still holds
     * two or more WRs.
     */
    void
    replenish(std::size_t round)
    {
        if (srq->depth() >= 2)
            return;
        static constexpr std::size_t counts[] = {1, 2, 3, 5};
        const std::size_t n = counts[round % 4];
        if (round % 2 == 0) {
            for (std::size_t i = 0; i < n; ++i)
                postOne();
            return;
        }
        std::vector<verbs::RecvWrSpec> chain;
        for (std::size_t i = 0; i < n; ++i) {
            chain.push_back({posted, rmr.get(),
                             (posted % slots) * wrBytes, wrBytes});
            ++posted;
        }
        srq->postRecvList(chain);
    }

    /** Replenish every 200 us until every send WR has completed. */
    bool
    run(const std::function<void(std::size_t)> &at_round = {})
    {
        for (std::size_t r = 0; r < 40000; ++r) {
            if (at_round)
                at_round(r);
            if (sendsDone >= sendsPosted && connected == clientQps.size())
                break;
            replenish(r);
            bed.sim().runFor(200 * sim::oneUs);
        }
        bed.sim().runFor(50 * sim::oneMs);
        return sendsDone == sendsPosted;
    }

    std::vector<std::uint64_t>
    serverSegsOut()
    {
        std::vector<std::uint64_t> out;
        for (const auto &qp : serverQps) {
            if (!qp)
                continue;
            auto *conn = bed.nicOf(1).connectionOf(qp->num());
            out.push_back(conn != nullptr ? conn->stats().segsOut.value()
                                          : 0);
        }
        return out;
    }

    QpipTestbed &bed;
    std::vector<std::unique_ptr<net::PcapWriter>> taps;
    verbs::Provider &server;
    verbs::Provider &client;
    std::shared_ptr<verbs::CompletionQueue> scq, ccq;
    std::shared_ptr<verbs::SharedReceiveQueue> srq;
    std::vector<std::uint8_t> rbuf, sbuf;
    std::shared_ptr<verbs::MemoryRegion> rmr, smr;
    verbs::Acceptor acc;
    std::shared_ptr<verbs::QueuePair> rudQp;
    std::vector<std::shared_ptr<verbs::QueuePair>> serverQps;
    std::vector<std::shared_ptr<verbs::QueuePair>> clientQps;
    std::vector<std::shared_ptr<verbs::QueuePair>> peers;
    std::size_t connected = 0;
    std::uint64_t posted = 0;
    std::uint64_t received = 0;
    std::uint64_t sendsPosted = 0;
    std::uint64_t sendsDone = 0;
};

/** Everything the wake tests pin, read from the server NIC. */
void
expectWakePins(WakeFanIn &w, std::uint64_t srq_rnr, std::uint64_t seq_drops,
               std::uint64_t received, sim::Tick now, std::uint64_t digest,
               const std::vector<std::uint64_t> &segs_out)
{
    auto &nic = w.bed.nicOf(1);
    EXPECT_EQ(nic.srqRnrHolds.value(), srq_rnr);
    // RUD holds on an SRQ count as srq.rnrHolds; rud.rnrHolds is the
    // own-ring counter and must stay untouched.
    EXPECT_EQ(nic.rudRnrHolds.value(), 0u);
    EXPECT_EQ(nic.rudSeqDrops.value(), seq_drops);
    EXPECT_EQ(nic.rudAcksSent.value(),
              WakeFanIn::numPeers * WakeFanIn::rudMsgs);
    EXPECT_EQ(w.received, received);
    EXPECT_EQ(w.bed.sim().now(), now);
    EXPECT_EQ(captureDigest(w.taps), digest);
    EXPECT_EQ(w.serverSegsOut(), segs_out);
}

} // namespace

// The expected values below were recorded from the full fan-out
// implementation (every attached QP notified on every replenish);
// waking only the QPs a replenish can affect must reproduce them. The
// capture digests were re-recorded once, when TCP initial sequence
// numbers moved to per-object streams.

TEST(Srq, ReplenishWakeMatchesFullFanOut)
{
    QpipTestbed bed(2);
    WakeFanIn w(bed);
    ASSERT_EQ(w.serverQps.size(), WakeFanIn::numRc);
    ASSERT_TRUE(w.run());
    expectWakePins(
        w, 166, 27, 224, 76776282272ull, 0xadad5df0e758c2ddull,
        {6, 7, 7, 6, 8, 6, 7, 7, 8, 7, 6, 7, 6, 8, 7, 8,
         6, 7, 7, 6, 8, 6, 7, 7, 8, 7, 6, 7, 6, 8, 7, 8,
         6, 7, 7, 6, 8, 6, 8, 8, 7, 6, 8, 8, 8, 8, 7, 8,
         8, 8, 8, 8, 8, 8, 8, 8, 7, 8, 7, 7, 7, 5, 7, 5});
}

TEST(Srq, ReplenishWakeOrderSurvivesDetach)
{
    QpipTestbed bed(2);
    WakeFanIn w(bed);
    ASSERT_EQ(w.serverQps.size(), WakeFanIn::numRc);
    // Mid-run, while QPs are holding: detach three server QPs (their
    // clients see a reset and flush) and attach three fresh ones at
    // the back of the attach order, whose clients then send a burst.
    ASSERT_TRUE(w.run([&](std::size_t round) {
        if (round != 20)
            return;
        for (std::size_t i : {5u, 20u, 40u})
            w.serverQps[i].reset();
        for (int i = 0; i < 3; ++i) {
            w.acceptOne();
            w.connectClient(true);
        }
    }));
    expectWakePins(
        w, 129, 25, 228, 74576282272ull, 0xfdce3202a64a9c66ull,
        {6, 7, 7, 6, 8, 7, 7, 8, 7, 6, 7, 6, 8, 7, 8, 6,
         7, 7, 6, 6, 7, 7, 8, 7, 6, 7, 6, 6, 6, 6, 7, 8,
         7, 6, 8, 8, 7, 6, 8, 8, 8, 8, 8, 8, 7, 8, 8, 7,
         8, 8, 8, 7, 6, 8, 8, 8, 8, 6, 8, 8, 8, 9, 9, 9});
}

// ---------------------------------------------------------------------
// QP context cache
// ---------------------------------------------------------------------

TEST(QpCtxCache, MissesAndEvictionsAreCounted)
{
    nic::QpipNicParams params;
    params.qpCacheCapacity = 2; // tiny SRAM: 2 resident contexts
    QpipTestbed bed(2, qpipNativeMtu, 1, params);

    auto &prov = bed.provider(0);
    auto cq = prov.createCq();
    // Three QPs thrash a two-entry cache.
    auto a = prov.createQp(nic::QpType::UnreliableUdp, cq, cq);
    auto b = prov.createQp(nic::QpType::UnreliableUdp, cq, cq);
    auto q3 = prov.createQp(nic::QpType::UnreliableUdp, cq, cq);
    a->bind(9000);
    b->bind(9001);
    q3->bind(9002);
    bed.sim().runFor(10 * sim::oneMs);

    const auto &cache = bed.nicOf(0).qpCache();
    // Warm installs: creating the third QP evicted the first.
    EXPECT_EQ(cache.evictions.value(), 1u);
    EXPECT_EQ(cache.misses.value(), 0u);

    std::vector<std::uint8_t> buf(4096);
    auto mr = prov.registerMemory(buf);
    // Touching the evicted QP now misses (fetch) and evicts another.
    ASSERT_TRUE(a->postSend(1, *mr, 0, 64, bed.addr(1, 9100)));
    bed.sim().runFor(10 * sim::oneMs);
    EXPECT_GE(cache.misses.value(), 1u);
    EXPECT_GE(cache.evictions.value(), 2u);
    EXPECT_GE(bed.nicOf(0).ctxWritebacks.value(), 1u);
}

TEST(QpCtxCacheDeathTest, ZeroCapacityPanics)
{
    // One accounting mode: a cache with no room is a configuration
    // error, not a switch that turns the model off.
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(nic::QpContextCache{0}, "capacity must be at least 1");
    EXPECT_DEATH(
        {
            nic::QpipNicParams params;
            params.qpCacheCapacity = 0;
            QpipTestbed bed(2, qpipNativeMtu, 1, params);
        },
        "capacity must be at least 1");
}

TEST(QpCtxCache, EveryEvictionOwesOneWriteback)
{
    // Two context blocks of SRAM.
    nic::QpContextCache cache(2);

    // Filling the cache evicts nothing, so nothing owes a writeback.
    EXPECT_FALSE(cache.install(1).evicted);
    EXPECT_FALSE(cache.install(2).evicted);
    EXPECT_EQ(cache.evictions.value(), 0u);

    // A third install displaces the LRU (qp1).
    EXPECT_TRUE(cache.install(3).evicted);
    EXPECT_FALSE(cache.resident(1));
    EXPECT_EQ(cache.size(), 2u);

    // A hit displaces nothing; every miss on a full cache displaces
    // exactly one victim, whatever the victim was used for.
    const auto hit = cache.touch(3);
    EXPECT_TRUE(hit.hit);
    EXPECT_FALSE(hit.evicted);
    for (nic::QpNum q = 4; q <= 6; ++q) {
        const auto t = cache.touch(q);
        EXPECT_FALSE(t.hit);
        EXPECT_TRUE(t.evicted);
        EXPECT_EQ(cache.size(), 2u);
    }
    EXPECT_EQ(cache.hits.value(), 1u);
    EXPECT_EQ(cache.misses.value(), 3u);
    EXPECT_EQ(cache.evictions.value(), 4u);
}

TEST(QpCtxCache, CapacityOneEvictsOnEveryNewQp)
{
    nic::QpContextCache cache(1);
    EXPECT_FALSE(cache.install(1).evicted);
    for (nic::QpNum q = 2; q <= 5; ++q) {
        const auto t = cache.touch(q);
        EXPECT_FALSE(t.hit);
        EXPECT_TRUE(t.evicted);
        EXPECT_FALSE(cache.resident(q - 1));
        EXPECT_EQ(cache.size(), 1u);
    }
    EXPECT_TRUE(cache.touch(5).hit);
    EXPECT_EQ(cache.evictions.value(), 4u);
}

namespace {

/** The obvious LRU: a list in MRU order, searched linearly. */
class RefLru
{
  public:
    explicit RefLru(std::size_t cap) : cap_(cap) {}

    nic::QpContextCache::Touch
    touch(nic::QpNum qp)
    {
        nic::QpContextCache::Touch t;
        auto it = std::find(lru_.begin(), lru_.end(), qp);
        if (it != lru_.end()) {
            lru_.splice(lru_.begin(), lru_, it);
            ++hits;
            return t;
        }
        t.hit = false;
        t.evicted = insert(qp);
        ++misses;
        return t;
    }

    nic::QpContextCache::Touch
    install(nic::QpNum qp)
    {
        nic::QpContextCache::Touch t;
        if (!resident(qp))
            t.evicted = insert(qp);
        return t;
    }

    void remove(nic::QpNum qp) { lru_.remove(qp); }

    bool
    resident(nic::QpNum qp) const
    {
        return std::find(lru_.begin(), lru_.end(), qp) != lru_.end();
    }

    std::size_t size() const { return lru_.size(); }

    std::uint64_t hits = 0, misses = 0, evictions = 0;

  private:
    bool
    insert(nic::QpNum qp)
    {
        bool evicted = false;
        if (lru_.size() >= cap_) {
            lru_.pop_back();
            ++evictions;
            evicted = true;
        }
        lru_.push_front(qp);
        return evicted;
    }

    std::size_t cap_;
    std::list<nic::QpNum> lru_; ///< MRU at front
};

} // namespace

TEST(QpCtxCache, MatchesReferenceLru)
{
    for (const std::size_t cap : {std::size_t{1}, std::size_t{64}}) {
        nic::QpContextCache cache(cap);
        RefLru ref(cap);
        std::mt19937 rng(19);
        // A hot set that mostly fits the cache plus a long tail, so
        // hits, misses, evictions and removals all happen often.
        std::uniform_int_distribution<nic::QpNum> hot(1, 80);
        std::uniform_int_distribution<nic::QpNum> any(0, 2999);
        std::uniform_int_distribution<int> pick(0, 99);
        for (int step = 0; step < 20000; ++step) {
            const nic::QpNum qp = pick(rng) < 70 ? hot(rng) : any(rng);
            const int op = pick(rng);
            SCOPED_TRACE(testing::Message()
                         << "cap " << cap << " step " << step << " qp "
                         << qp << " op " << op);
            if (op < 60) {
                const auto got = cache.touch(qp);
                const auto want = ref.touch(qp);
                ASSERT_EQ(got.hit, want.hit);
                ASSERT_EQ(got.evicted, want.evicted);
            } else if (op < 80) {
                const auto got = cache.install(qp);
                const auto want = ref.install(qp);
                ASSERT_EQ(got.hit, want.hit);
                ASSERT_EQ(got.evicted, want.evicted);
            } else {
                cache.remove(qp);
                ref.remove(qp);
            }
            ASSERT_EQ(cache.size(), ref.size());
            ASSERT_EQ(cache.resident(qp), ref.resident(qp));
        }
        EXPECT_EQ(cache.hits.value(), ref.hits);
        EXPECT_EQ(cache.misses.value(), ref.misses);
        EXPECT_EQ(cache.evictions.value(), ref.evictions);
        EXPECT_GT(ref.hits, 50u);
        EXPECT_GT(ref.evictions, 1000u);
        for (nic::QpNum qp = 0; qp < 3000; ++qp)
            ASSERT_EQ(cache.resident(qp), ref.resident(qp)) << qp;
    }
}

// ---------------------------------------------------------------------
// Reliable datagrams (RUD)
// ---------------------------------------------------------------------

TEST(Rud, InOrderDeliveryWithAckGatedCompletions)
{
    QpipTestbed bed(2);
    auto &client = bed.provider(0);
    auto &server = bed.provider(1);

    auto scq = server.createCq();
    auto ccq = client.createCq();
    std::vector<std::uint8_t> rbuf(1 << 14), sbuf(1 << 14);
    auto rmr = server.registerMemory(rbuf);
    auto smr = client.registerMemory(sbuf);

    auto qs = server.createQp(nic::QpType::ReliableDatagram, scq, scq);
    qs->bind(800);
    auto qc = client.createQp(nic::QpType::ReliableDatagram, ccq, ccq);
    qc->bind(801);

    constexpr std::size_t numMsgs = 4;
    constexpr std::size_t msgBytes = 512;
    for (std::size_t i = 0; i < numMsgs; ++i)
        ASSERT_TRUE(qs->postRecv(100 + i, *rmr, i * 1024, 1024));
    for (std::size_t i = 0; i < numMsgs; ++i) {
        const auto msg =
            pattern(msgBytes, static_cast<std::uint8_t>(i + 1));
        std::copy(msg.begin(), msg.end(),
                  sbuf.begin() + i * msgBytes);
        ASSERT_TRUE(qc->postSend(i, *smr, i * msgBytes, msgBytes,
                                 bed.addr(1, 800)));
    }

    // Delivery is in posted order, WR-per-message.
    for (std::size_t i = 0; i < numMsgs; ++i) {
        Completion c;
        ASSERT_TRUE(awaitCompletion(bed, *scq, c));
        EXPECT_FALSE(c.isSend);
        EXPECT_EQ(c.wrId, 100 + i);
        EXPECT_EQ(c.status, WcStatus::Success);
        EXPECT_EQ(c.byteLen, msgBytes);
        EXPECT_EQ(c.from, bed.addr(0, 801));
        const auto expect =
            pattern(msgBytes, static_cast<std::uint8_t>(i + 1));
        EXPECT_TRUE(std::equal(expect.begin(), expect.end(),
                               rbuf.begin() + i * 1024));
    }

    // Send completions are ack-gated and arrive in order too.
    for (std::size_t i = 0; i < numMsgs; ++i) {
        Completion c;
        ASSERT_TRUE(awaitCompletion(bed, *ccq, c));
        EXPECT_TRUE(c.isSend);
        EXPECT_EQ(c.wrId, i);
        EXPECT_EQ(c.status, WcStatus::Success);
    }
    EXPECT_GE(bed.nicOf(1).rudAcksSent.value(), 1u);
    EXPECT_EQ(bed.nicOf(0).rudRetransmits.value(), 0u);
    EXPECT_EQ(bed.nicOf(0).udpNoWrDrops.value(), 0u);
}

TEST(Rud, ManyPeersFanInToOneQp)
{
    QpipTestbed bed(2);
    auto &client = bed.provider(0);
    auto &server = bed.provider(1);

    auto scq = server.createCq();
    auto ccq = client.createCq();
    std::vector<std::uint8_t> rbuf(1 << 14), sbuf(1 << 14);
    auto rmr = server.registerMemory(rbuf);
    auto smr = client.registerMemory(sbuf);

    // One server QP; each client-side QP is a distinct peer (its own
    // source port), with its own sequence space on the server.
    auto qs = server.createQp(nic::QpType::ReliableDatagram, scq, scq);
    qs->bind(800);

    constexpr std::size_t numPeers = 4;
    constexpr std::size_t perPeer = 2;
    constexpr std::size_t msgBytes = 128;
    std::vector<std::shared_ptr<verbs::QueuePair>> peers;
    for (std::size_t i = 0; i < numPeers; ++i) {
        auto qp =
            client.createQp(nic::QpType::ReliableDatagram, ccq, ccq);
        qp->bind(static_cast<std::uint16_t>(2000 + i));
        peers.push_back(std::move(qp));
    }
    for (std::size_t i = 0; i < numPeers * perPeer; ++i)
        ASSERT_TRUE(qs->postRecv(100 + i, *rmr, i * 256, 256));
    for (std::size_t round = 0; round < perPeer; ++round) {
        for (std::size_t i = 0; i < numPeers; ++i) {
            const std::size_t n = round * numPeers + i;
            ASSERT_TRUE(peers[i]->postSend(n, *smr, n * msgBytes,
                                           msgBytes,
                                           bed.addr(1, 800)));
        }
    }

    std::map<std::uint16_t, std::size_t> perPort;
    for (std::size_t n = 0; n < numPeers * perPeer; ++n) {
        Completion c;
        ASSERT_TRUE(awaitCompletion(bed, *scq, c));
        ASSERT_FALSE(c.isSend);
        EXPECT_EQ(c.status, WcStatus::Success);
        ++perPort[c.from.port];
    }
    EXPECT_EQ(perPort.size(), numPeers);
    for (const auto &[port, count] : perPort)
        EXPECT_EQ(count, perPeer) << "port " << port;

    // Every send eventually completes (acked), none retransmitted on
    // a clean fabric.
    std::size_t sendsDone = 0;
    while (sendsDone < numPeers * perPeer) {
        Completion c;
        ASSERT_TRUE(awaitCompletion(bed, *ccq, c));
        if (c.isSend && c.status == WcStatus::Success)
            ++sendsDone;
    }
    EXPECT_EQ(bed.nicOf(0).rudRetransmits.value(), 0u);
}

TEST(Rud, SrqExhaustionHoldsAndAccountsRnr)
{
    QpipTestbed bed(2);
    auto &client = bed.provider(0);
    auto &server = bed.provider(1);

    auto scq = server.createCq();
    auto ccq = client.createCq();
    auto srq = server.createSrq();
    std::vector<std::uint8_t> rbuf(8192), sbuf(8192);
    auto rmr = server.registerMemory(rbuf);
    auto smr = client.registerMemory(sbuf);

    QpAttrs attrs;
    attrs.srq = srq;
    auto qs = server.createQp(nic::QpType::ReliableDatagram, scq, scq,
                              attrs);
    qs->bind(800);
    auto qc = client.createQp(nic::QpType::ReliableDatagram, ccq, ccq);
    qc->bind(801);

    // SRQ empty: unlike UD (which drops and counts srq.emptyDrops),
    // the reliable service holds the in-order datagram un-acked and
    // accounts an RNR hold.
    ASSERT_TRUE(qc->postSend(1, *smr, 0, 256, bed.addr(1, 800)));
    bed.sim().runFor(100 * sim::oneMs);
    EXPECT_GE(bed.nicOf(1).srqRnrHolds.value(), 1u);
    EXPECT_EQ(bed.nicOf(1).srqEmptyDrops.value(), 0u);
    EXPECT_EQ(scq->depth(), 0u); // nothing delivered...
    EXPECT_EQ(ccq->depth(), 0u); // ...and nothing acked

    // Reposting releases the held datagram; the ack then completes
    // the client's send.
    ASSERT_TRUE(srq->postRecv(7, *rmr, 0, 4096));
    Completion c;
    ASSERT_TRUE(awaitCompletion(bed, *scq, c, 20 * sim::oneSec));
    EXPECT_EQ(c.wrId, 7u);
    EXPECT_EQ(c.byteLen, 256u);
    EXPECT_EQ(c.status, WcStatus::Success);
    ASSERT_TRUE(awaitCompletion(bed, *ccq, c, 20 * sim::oneSec));
    EXPECT_TRUE(c.isSend);
    EXPECT_EQ(c.wrId, 1u);
    EXPECT_EQ(c.status, WcStatus::Success);
}

TEST(Rud, FlushSurfacesWindowedSendsOnDestroy)
{
    QpipTestbed bed(2);
    auto &client = bed.provider(0);
    auto ccq = client.createCq();
    std::vector<std::uint8_t> sbuf(4096);
    auto smr = client.registerMemory(sbuf);

    auto qc = client.createQp(nic::QpType::ReliableDatagram, ccq, ccq);
    qc->bind(801);
    // The peer port is bound by nobody: data flows out but no ack
    // ever returns, so the WR stays in the unacked window.
    ASSERT_TRUE(qc->postSend(1, *smr, 0, 256, bed.addr(1, 802)));
    bed.sim().runFor(20 * sim::oneMs);
    EXPECT_EQ(ccq->depth(), 0u);

    // Destroying the QP flushes the window.
    qc.reset();
    bed.sim().runFor(10 * sim::oneMs);
    Completion c;
    ASSERT_TRUE(ccq->poll(c));
    EXPECT_TRUE(c.isSend);
    EXPECT_EQ(c.wrId, 1u);
    EXPECT_EQ(c.status, WcStatus::Flushed);
}

TEST(Rud, FlushEmitsCompletionsInPeerAddressOrder)
{
    QpipTestbed bed(4);
    auto &client = bed.provider(0);
    auto ccq = client.createCq();
    std::vector<std::uint8_t> sbuf(4096);
    auto smr = client.registerMemory(sbuf);
    auto qc = client.createQp(nic::QpType::ReliableDatagram, ccq, ccq);
    qc->bind(801);

    // Four peers on ports nobody binds, so no ack ever returns: every
    // send stays in its peer's unacked window, and past windowLimit
    // the rest queue as blocked sends. First contact is out of
    // address order.
    const std::vector<inet::SockAddr> peers = {
        bed.addr(2, 9001), bed.addr(1, 9003), bed.addr(3, 9002),
        bed.addr(1, 9000)};
    // The peers' hash-table order differs from their address order,
    // so the flush has to sort to pass.
    std::unordered_map<inet::SockAddr, int, inet::SockAddrHash> hashed;
    for (const auto &p : peers)
        hashed.emplace(p, 0);
    std::vector<inet::SockAddr> hashOrder;
    for (const auto &entry : hashed)
        hashOrder.push_back(entry.first);
    ASSERT_FALSE(std::is_sorted(hashOrder.begin(), hashOrder.end()));

    std::uint64_t wr = 100;
    for (std::size_t i = 0; i < peers.size(); ++i)
        for (int k = 0; k < 2; ++k)
            ASSERT_TRUE(qc->postSend(wr++, *smr, 0, 8, peers[i]));
    // A window's worth more (RudEngine::windowLimit, 64) to
    // bed.addr(1, 9000): 2 of its sends end up blocked.
    const std::size_t extra = 64;
    for (std::size_t k = 0; k < extra; ++k)
        ASSERT_TRUE(qc->postSend(wr++, *smr, 0, 8, peers[3]));
    bed.sim().runFor(20 * sim::oneMs);
    ASSERT_EQ(ccq->depth(), 0u);

    qc.reset();
    bed.sim().runFor(10 * sim::oneMs);
    std::vector<std::uint64_t> flushed;
    Completion c;
    while (ccq->poll(c)) {
        EXPECT_EQ(c.status, WcStatus::Flushed);
        flushed.push_back(c.wrId);
    }

    // Recorded from the ordered-map table: peers in address order
    // (host 1:9000, host 1:9003, host 2:9001, host 3:9002), each
    // peer's window before its blocked sends.
    std::vector<std::uint64_t> expected;
    for (std::uint64_t id = 106; id < 108 + extra; ++id)
        expected.push_back(id);
    expected.insert(expected.end(), {102, 103, 100, 101, 104, 105});
    EXPECT_EQ(flushed, expected);
}
