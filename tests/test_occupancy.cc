/**
 * @file
 * Calibration regression tests: the firmware per-stage occupancy must
 * reproduce the paper's Tables 2 and 3 (within tight tolerances) for
 * 1-byte message traffic, and the hardware-assist knobs must move the
 * stages they claim to move. Guards the FirmwareCostModel against
 * accidental drift.
 */

#include <gtest/gtest.h>

#include "apps/testbed.hh"
#include "apps/verbs_util.hh"

using namespace qpip;
using namespace qpip::apps;
using nic::FwStage;

namespace {

/** One-way stream of 1-byte messages; returns true on completion. */
bool
runOneWay(QpipTestbed &bed, std::size_t messages)
{
    auto &ptx = bed.provider(0);
    auto &prx = bed.provider(1);
    auto ctx = ptx.createCq(4096);
    auto crx = prx.createCq(4096);
    auto btx = std::make_shared<std::vector<std::uint8_t>>(8, 1);
    auto brx = std::make_shared<std::vector<std::uint8_t>>(8, 0);
    auto mtx = ptx.registerMemory(*btx);
    auto mrx = prx.registerMemory(*brx);

    auto acc = std::make_shared<verbs::Acceptor>(prx, 7, crx, crx);
    auto received = std::make_shared<std::size_t>(0);
    auto rqp = std::make_shared<std::shared_ptr<verbs::QueuePair>>();
    acc->acceptOne([=](std::shared_ptr<verbs::QueuePair> q) {
        *rqp = q;
        q->postRecv(1, *mrx, 0, 1);
    });
    auto qp = ptx.createQp(nic::QpType::ReliableTcp, ctx, ctx, 64, 4);
    bool connected = false;
    qp->connect(bed.addr(1, 7), [&](bool ok) { connected = ok; });
    bed.sim().runUntilCondition([&] { return connected; },
                                10 * sim::oneSec);
    if (!connected)
        return false;
    bed.nicOf(0).fw().resetStats();
    bed.nicOf(1).fw().resetStats();

    auto sent = std::make_shared<std::size_t>(0);
    waitLoop(*crx, [=](verbs::Completion c) {
        if (!c.isSend) {
            ++*received;
            (*rqp)->postRecv(1, *mrx, 0, 1);
        }
    });
    auto send_next = std::make_shared<std::function<void()>>();
    *send_next = [=] {
        if (*sent >= messages)
            return;
        ++*sent;
        qp->postSend(*sent, *mtx, 0, 1);
    };
    waitLoop(*ctx, [=](verbs::Completion c) {
        if (c.isSend)
            (*send_next)();
    });
    (*send_next)();
    return bed.sim().runUntilCondition(
        [&] { return *received >= messages; },
        bed.sim().now() + 120 * sim::oneSec);
}

double
meanUs(nic::QpipNic &nic, FwStage s)
{
    return nic.fw().stageStat(s).mean();
}

} // namespace

TEST(Occupancy, Table2TransmitStages)
{
    QpipTestbed bed(2);
    ASSERT_TRUE(runOneWay(bed, 100));
    auto &tx = bed.nicOf(0); // data sends
    EXPECT_NEAR(meanUs(tx, FwStage::DoorbellProcess), 1.0, 0.1);
    EXPECT_NEAR(meanUs(tx, FwStage::Schedule), 2.0, 0.2);
    EXPECT_NEAR(meanUs(tx, FwStage::GetWr), 5.5, 0.3);
    EXPECT_NEAR(meanUs(tx, FwStage::GetData), 4.5, 0.5);
    EXPECT_NEAR(meanUs(tx, FwStage::BuildTcpHdr), 5.0, 0.3);
    EXPECT_NEAR(meanUs(tx, FwStage::BuildIpHdr), 1.0, 0.1);
    EXPECT_NEAR(meanUs(tx, FwStage::MediaSend), 1.0, 0.1);
    EXPECT_NEAR(meanUs(tx, FwStage::UpdateTx), 1.5, 0.2);
}

TEST(Occupancy, Table3ReceiveStages)
{
    QpipTestbed bed(2);
    ASSERT_TRUE(runOneWay(bed, 100));
    auto &rx = bed.nicOf(1); // receives data
    auto &tx = bed.nicOf(0); // receives ACKs
    EXPECT_NEAR(meanUs(rx, FwStage::MediaRcv), 1.0, 0.1);
    EXPECT_NEAR(meanUs(rx, FwStage::IpParse), 1.5, 0.2);
    EXPECT_NEAR(meanUs(rx, FwStage::TcpParse), 7.0, 0.5);
    EXPECT_NEAR(meanUs(rx, FwStage::GetWr), 5.5, 0.3);
    EXPECT_NEAR(meanUs(rx, FwStage::PutData), 4.5, 0.5);
    EXPECT_NEAR(meanUs(rx, FwStage::UpdateRx), 1.5, 0.2);
    // ACK side: software-multiply RTT estimators double the parse,
    // and Update writes back WR + QP state.
    EXPECT_NEAR(meanUs(tx, FwStage::TcpParse), 14.0, 0.8);
    EXPECT_NEAR(meanUs(tx, FwStage::UpdateRx), 9.0, 0.5);
}

TEST(Occupancy, HwMultiplyRemovesAckParsePenalty)
{
    nic::QpipNicParams p;
    p.costs.hwMultiply = true;
    QpipTestbed bed(2, qpipNativeMtu, 1, p);
    ASSERT_TRUE(runOneWay(bed, 100));
    auto &tx = bed.nicOf(0);
    EXPECT_NEAR(meanUs(tx, FwStage::TcpParse), 7.0, 0.5);
}

TEST(Occupancy, FirmwareChecksumChargesPerByte)
{
    nic::QpipNicParams p;
    p.costs = nic::lanai9FirmwareCosts();
    QpipTestbed bed(2, qpipNativeMtu, 1, p);
    ASSERT_TRUE(runOneWay(bed, 50));
    auto &rx = bed.nicOf(1);
    EXPECT_GT(rx.fw().stageStat(FwStage::Checksum).count(), 0u);
    // ~60-byte packets at ~2.75 cyc/B + 1 us fixed: low single-digit
    // microseconds.
    EXPECT_GT(meanUs(rx, FwStage::Checksum), 1.0);
    EXPECT_LT(meanUs(rx, FwStage::Checksum), 5.0);
}

TEST(Occupancy, SoftwareDoorbellCostsMore)
{
    double hw_us = 0.0, sw_us = 0.0;
    {
        QpipTestbed bed(2);
        ASSERT_TRUE(runOneWay(bed, 50));
        hw_us = meanUs(bed.nicOf(0), FwStage::DoorbellProcess);
    }
    {
        nic::QpipNicParams p;
        p.costs.hwDoorbell = false;
        QpipTestbed bed(2, qpipNativeMtu, 1, p);
        ASSERT_TRUE(runOneWay(bed, 50));
        sw_us = meanUs(bed.nicOf(0), FwStage::DoorbellProcess);
    }
    EXPECT_NEAR(sw_us, hw_us * 4.0, 0.5); // swDoorbellFactor
}

TEST(Occupancy, FirmwareBusyFractionTracksLoad)
{
    QpipTestbed bed(2);
    ASSERT_TRUE(runOneWay(bed, 200));
    // Serial 1-byte messages: the NIC is mostly idle between them.
    auto &fw = bed.nicOf(0).fw();
    EXPECT_GT(fw.busyTotal(), 0u);
    EXPECT_LT(fw.busyTotal(), bed.sim().now());
}

TEST(Occupancy, QpContextCacheIsFreeInPaperConfigs)
{
    // The paper's experiments run a handful of QPs; a cache sized
    // like the LANai's SRAM (the default 1024 contexts) warm-installs
    // every context at creation and never misses, so it charges the
    // firmware nothing — fetch/writeback charges only appear under
    // thrash. The Tables 2/3 pins hold the timing itself.
    QpipTestbed bed(2);
    ASSERT_TRUE(runOneWay(bed, 100));
    for (int n = 0; n < 2; ++n) {
        SCOPED_TRACE(n);
        const auto &cache = bed.nicOf(n).qpCache();
        EXPECT_GT(cache.hits.value(), 0u);
        EXPECT_EQ(cache.misses.value(), 0u);
        EXPECT_EQ(cache.evictions.value(), 0u);
        EXPECT_EQ(bed.nicOf(n).ctxWritebacks.value(), 0u);
        const auto &fetch = bed.nicOf(n).fw().stageStat(FwStage::CtxFetch);
        EXPECT_EQ(fetch.count(), 0u);
        EXPECT_EQ(fetch.total(), 0.0);
    }
}
