/**
 * @file
 * Figure 4 pins: the six fig4_throughput rows (a 10 MB ttcp transfer
 * in 16 KB chunks with TCP_NODELAY, as bench/fig4_throughput runs
 * them) must reproduce exactly, and the paper's claims about them must
 * hold no further from the paper than EXPERIMENTS.md records: QPIP
 * beats both host stacks at its native MTU, the host stacks burn half
 * to all of a host CPU while QPIP stays near 1 %, the NIC CPU
 * saturates at a 1500 B MTU and lands QPIP about 22 % below GigE, and
 * QPIP at 9000 B stays within its recorded deviation.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "apps/testbed.hh"
#include "apps/ttcp.hh"
#include "nic/firmware_cost.hh"

using namespace qpip;
using namespace qpip::apps;

namespace {

constexpr std::size_t transferBytes = std::size_t(10) << 20;

/** Every fig4_throughput row, in the bench's order. */
struct Figure4
{
    TtcpResult gige;
    TtcpResult myrinet;
    TtcpResult qpipNative;
    TtcpResult qpip9000;
    TtcpResult qpip1500;
    TtcpResult qpipFirmwareCksum;
};

TtcpResult
socketsRow(SocketsFabric fabric)
{
    SocketsTestbed bed(2, fabric);
    return runSocketsTtcp(bed, transferBytes);
}

TtcpResult
qpipRow(std::uint32_t mtu, bool firmware_cksum = false)
{
    nic::QpipNicParams p;
    if (firmware_cksum)
        p.costs = nic::lanai9FirmwareCosts();
    QpipTestbed bed(2, mtu, 1, p);
    return runQpipTtcp(bed, transferBytes);
}

/** The rows, simulated once per test process. */
const Figure4 &
figure4()
{
    static const Figure4 rows{
        socketsRow(SocketsFabric::GigabitEthernet),
        socketsRow(SocketsFabric::MyrinetIp),
        qpipRow(qpipNativeMtu),
        qpipRow(9000),
        qpipRow(1500),
        qpipRow(qpipNativeMtu, true),
    };
    return rows;
}

void
expectRow(const TtcpResult &r, double mb_per_sec, double tx_cpu,
          double rx_cpu)
{
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.mbPerSec, mb_per_sec);
    EXPECT_EQ(r.txCpuUtil, tx_cpu);
    EXPECT_EQ(r.rxCpuUtil, rx_cpu);
}

} // namespace

TEST(Figure4, RowsMatchTheRecordedResults)
{
    // Recorded from bench/fig4_throughput's configuration; every row
    // is a deterministic simulation, so any change is a behaviour
    // change.
    const Figure4 &f = figure4();
    {
        SCOPED_TRACE("IP/GigE");
        expectRow(f.gige,
                  46.924440144504516, 0.90385132610052088,
                  0.99494113770569348);
    }
    {
        SCOPED_TRACE("IP/Myrinet");
        expectRow(f.myrinet,
                  59.43964870619962, 0.54034259540186913,
                  0.61970970911003243);
    }
    {
        SCOPED_TRACE("QPIP native");
        expectRow(f.qpipNative,
                  75.633273618342699, 0.01285773813740458,
                  0.01111758815431165);
    }
    {
        SCOPED_TRACE("QPIP 9000");
        expectRow(f.qpip9000,
                  64.592414757713215, 0.010978243428201811,
                  0.0095741113501291997);
    }
    {
        SCOPED_TRACE("QPIP 1500");
        expectRow(f.qpip1500,
                  35.686636218352817, 0.0063556462500000003,
                  0.0055334493004996427);
    }
    {
        SCOPED_TRACE("QPIP firmware checksum");
        expectRow(f.qpipFirmwareCksum,
                  28.439839164593703, 0.0051616802175157416,
                  0.0045205289562002277);
    }
}

TEST(Figure4, QpipBeatsBothHostStacksAtNativeMtu)
{
    const Figure4 &f = figure4();
    EXPECT_GT(f.qpipNative.mbPerSec, f.gige.mbPerSec);
    EXPECT_GT(f.qpipNative.mbPerSec, f.myrinet.mbPerSec);
}

TEST(Figure4, HostStacksBurnTheCpuQpipStaysNearOnePercent)
{
    // The paper: the host stacks consume half to three quarters of a
    // host processor, QPIP about 1 %. EXPERIMENTS.md: 54-99 % for the
    // host stacks, at most 1.3 % for any QPIP row.
    const Figure4 &f = figure4();
    for (const TtcpResult *r : {&f.gige, &f.myrinet}) {
        EXPECT_GE(r->txCpuUtil, 0.5);
        EXPECT_LE(r->txCpuUtil, 1.0);
        EXPECT_GE(r->rxCpuUtil, 0.5);
        EXPECT_LE(r->rxCpuUtil, 1.0);
    }
    for (const TtcpResult *r : {&f.qpipNative, &f.qpip9000, &f.qpip1500,
                                &f.qpipFirmwareCksum}) {
        EXPECT_LE(r->txCpuUtil, 0.013);
        EXPECT_LE(r->rxCpuUtil, 0.013);
    }
}

TEST(Figure4, NicCpuSaturatesAt1500ByteMtu)
{
    // The paper: at 1500 B the 133 MHz NIC CPU saturates and QPIP
    // lands 22 % below GigE. EXPERIMENTS.md: 24 % measured.
    const Figure4 &f = figure4();
    const double gap = 1.0 - f.qpip1500.mbPerSec / f.gige.mbPerSec;
    EXPECT_LE(std::abs(gap - 0.22), 0.24 - 0.22);
}

TEST(Figure4, Qpip9000StaysWithinItsRecordedDeviation)
{
    // EXPERIMENTS.md: 64.6 MB/s against the paper's 70.1, 7.9 % low
    // (the per-fragment firmware cost is tuned to the 1500 B point).
    const Figure4 &f = figure4();
    EXPECT_LE(std::abs(f.qpip9000.mbPerSec - 70.1) / 70.1, 0.079);
}
