/**
 * @file
 * Ablation pins: the rows of bench/ablation_hw_assists, ablation_loss
 * and ablation_mtu, run in the benches' configurations, must
 * reproduce exactly, and the claims EXPERIMENTS.md makes of them must
 * hold: the receive checksum is the largest ttcp lever among the
 * single hardware assists, 1 % loss costs more at a 1500 B MTU than
 * at the native one, and throughput never falls as the MTU grows.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "apps/pingpong.hh"
#include "apps/testbed.hh"
#include "apps/ttcp.hh"
#include "nic/firmware_cost.hh"

using namespace qpip;
using namespace qpip::apps;

namespace {

// --- ablation_hw_assists --------------------------------------------

/** One hardware-assist row: 1-byte TCP RTT and 10 MB ttcp. */
struct AssistRow
{
    double rttUs = 0.0;
    TtcpResult ttcp;
};

AssistRow
assistRow(const nic::FirmwareCostModel &costs)
{
    nic::QpipNicParams params;
    params.costs = costs;
    AssistRow r;
    {
        QpipTestbed bed(2, qpipNativeMtu, 1, params);
        r.rttUs = runQpipTcpPingPong(bed, 200).rttUs;
    }
    QpipTestbed bed(2, qpipNativeMtu, 1, params);
    r.ttcp = runQpipTtcp(bed, std::size_t(10) << 20);
    return r;
}

/** The bench's rows, in its order. */
struct Assists
{
    AssistRow prototype;
    AssistRow hwChecksum;
    AssistRow hwMultiply;
    AssistRow hwDemux;
    AssistRow swDoorbell;
    AssistRow infiniband;
};

const Assists &
assists()
{
    static const Assists rows = [] {
        Assists a;
        a.prototype = assistRow(nic::lanai9FirmwareCosts());
        a.hwChecksum = assistRow(nic::lanai9EmulatedHwChecksum());
        auto c = nic::lanai9EmulatedHwChecksum();
        c.hwMultiply = true;
        a.hwMultiply = assistRow(c);
        c.hwDemux = true;
        a.hwDemux = assistRow(c);
        auto d = nic::lanai9EmulatedHwChecksum();
        d.hwDoorbell = false;
        a.swDoorbell = assistRow(d);
        a.infiniband = assistRow(nic::infinibandGradeCosts());
        return a;
    }();
    return rows;
}

void
expectAssist(const AssistRow &r, double rtt_us, double mb_per_sec,
             double elapsed_ms)
{
    EXPECT_TRUE(r.ttcp.completed);
    EXPECT_EQ(r.rttUs, rtt_us);
    EXPECT_EQ(r.ttcp.mbPerSec, mb_per_sec);
    EXPECT_EQ(r.ttcp.elapsedMs, elapsed_ms);
}

// --- ablation_loss --------------------------------------------------

constexpr double lossRates[] = {0.0, 1e-3, 1e-2};

/** A 4 MB QPIP ttcp at @p mtu with @p loss dropped on both spokes. */
TtcpResult
lossPoint(std::uint32_t mtu, double loss)
{
    QpipTestbed bed(2, mtu);
    bed.fabric().linkFor(0).faultConfig().dropProb = loss;
    bed.fabric().linkFor(1).faultConfig().dropProb = loss;
    return runQpipTtcp(bed, std::size_t(4) << 20);
}

/** The bench's grid: [mtu 1500, 9000, native][loss 0, 0.1 %, 1 %]. */
const std::vector<std::vector<TtcpResult>> &
lossGrid()
{
    static const std::vector<std::vector<TtcpResult>> grid = [] {
        std::vector<std::vector<TtcpResult>> g;
        for (const std::uint32_t mtu : {1500u, 9000u, qpipNativeMtu}) {
            g.emplace_back();
            for (const double loss : lossRates)
                g.back().push_back(lossPoint(mtu, loss));
        }
        return g;
    }();
    return grid;
}

// --- ablation_mtu ---------------------------------------------------

constexpr std::uint32_t mtuGrid[] = {1500u,  3000u,  4500u,
                                     6000u,  9000u,  12000u,
                                     qpipNativeMtu};

/** A 10 MB QPIP ttcp at every MTU of the bench's grid. */
const std::vector<TtcpResult> &
mtuRows()
{
    static const std::vector<TtcpResult> rows = [] {
        std::vector<TtcpResult> r;
        for (const std::uint32_t mtu : mtuGrid) {
            QpipTestbed bed(2, mtu);
            r.push_back(runQpipTtcp(bed, std::size_t(10) << 20));
        }
        return r;
    }();
    return rows;
}

} // namespace

TEST(AblationHwAssists, RowsMatchTheRecordedResults)
{
    const Assists &a = assists();
    {
        SCOPED_TRACE("prototype");
        expectAssist(a.prototype,
                     116.185547, 28.439839164593703, 351.61942872200001);
    }
    {
        SCOPED_TRACE("+ hw rx checksum");
        expectAssist(a.hwChecksum,
                     110.512815, 75.633273618342699, 132.21693999999999);
    }
    {
        SCOPED_TRACE("+ hw multiply");
        expectAssist(a.hwMultiply,
                     110.512815, 74.62133032818312, 134.00994);
    }
    {
        SCOPED_TRACE("+ hw demux");
        expectAssist(a.hwDemux,
                     107.567358, 75.638134113648519, 132.20844375900001);
    }
    {
        SCOPED_TRACE("- hw doorbell");
        expectAssist(a.swDoorbell,
                     119.567368, 75.291600604561438, 132.81693999999999);
    }
    {
        SCOPED_TRACE("Infiniband-grade");
        expectAssist(a.infiniband,
                     26.840018000000001, 206.60245460187656,
                     48.402135489000003);
    }
}

TEST(AblationHwAssists, ReceiveChecksumIsTheLargestTtcpLever)
{
    // Each single assist against the row it is added to (or, for the
    // doorbell, taken from).
    const Assists &a = assists();
    const double checksum =
        std::fabs(a.hwChecksum.ttcp.mbPerSec - a.prototype.ttcp.mbPerSec);
    const double others[] = {
        std::fabs(a.hwMultiply.ttcp.mbPerSec -
                  a.hwChecksum.ttcp.mbPerSec),
        std::fabs(a.hwDemux.ttcp.mbPerSec - a.hwMultiply.ttcp.mbPerSec),
        std::fabs(a.swDoorbell.ttcp.mbPerSec -
                  a.hwChecksum.ttcp.mbPerSec),
    };
    for (const double lever : others)
        EXPECT_GT(checksum, lever);
}

TEST(AblationLoss, RowsMatchTheRecordedResults)
{
    const double mb[3][3] = {
        {33.496085228779101, 26.987468503937542, 0.22729317151864228},
        {58.125223237185502, 57.129031917133197, 27.544995783549773},
        {67.32086842573851, 67.32086842573851, 35.330401969881891},
    };
    const double ms[3][3] = {
        {119.41694, 148.21693999999999, 17598.416939999999},
        {68.816939999999988, 70.016940000000005, 145.21693999999999},
        {59.416940000000004, 59.416940000000004, 113.21694000000001},
    };
    const auto &g = lossGrid();
    for (std::size_t m = 0; m < 3; ++m) {
        for (std::size_t l = 0; l < 3; ++l) {
            SCOPED_TRACE(testing::Message() << "mtu row " << m
                                            << ", loss " << lossRates[l]);
            EXPECT_TRUE(g[m][l].completed);
            EXPECT_EQ(g[m][l].mbPerSec, mb[m][l]);
            EXPECT_EQ(g[m][l].elapsedMs, ms[m][l]);
        }
    }
}

TEST(AblationLoss, OnePercentLossCostsMoreAt1500ThanAtTheNativeMtu)
{
    const auto &g = lossGrid();
    const double kept1500 = g[0][2].mbPerSec / g[0][0].mbPerSec;
    const double keptNative = g[2][2].mbPerSec / g[2][0].mbPerSec;
    EXPECT_LT(kept1500, keptNative);
}

TEST(AblationMtu, RowsMatchTheRecordedResults)
{
    const double mb[] = {
        35.686636218352817, 48.728920721651932, 55.5503276524976,
        59.731112036810615, 64.592414757713215, 64.592414757713215,
        75.633273618342699,
    };
    const double tx_cpu[] = {
        0.0063556462500000003, 0.0084986556459566067,
        0.0096579357401129946, 0.010380266530487806,
        0.010978243428201811,  0.011114977221494102,
        0.01285773813740458,
    };
    const auto &rows = mtuRows();
    for (std::size_t i = 0; i < rows.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "mtu " << mtuGrid[i]);
        EXPECT_TRUE(rows[i].completed);
        EXPECT_EQ(rows[i].mbPerSec, mb[i]);
        EXPECT_EQ(rows[i].txCpuUtil, tx_cpu[i]);
    }
}

TEST(AblationMtu, ThroughputNeverFallsAsTheMtuGrows)
{
    const auto &rows = mtuRows();
    for (std::size_t i = 1; i < rows.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "mtu " << mtuGrid[i]);
        EXPECT_GE(rows[i].mbPerSec, rows[i - 1].mbPerSec);
    }
}
