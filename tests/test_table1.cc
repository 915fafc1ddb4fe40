/**
 * @file
 * Table 1 pins: both table1_overhead rows (host CPU per 1-byte TCP
 * message through the loopback stack, and per QPIP PostSend plus
 * successful Poll) must reproduce exactly, and the paper's claim about
 * them must hold: the host-based path costs about 12x QPIP's, no
 * further from the paper's 29.9/2.5 than EXPERIMENTS.md records.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "apps/pingpong.hh"
#include "apps/testbed.hh"

using namespace qpip;
using namespace qpip::apps;

namespace {

double
hostOverheadUs()
{
    SocketsTestbed bed(2, SocketsFabric::GigabitEthernet);
    return hostLoopbackOverhead(bed).usPerMsg;
}

double
qpipOverheadUs()
{
    QpipTestbed bed(2);
    return qpipPostPollOverheadUs(bed);
}

} // namespace

TEST(Table1, RowsMatchTheRecordedOverheads)
{
    // Recorded from bench/table1_overhead's configuration; both rows
    // are deterministic simulations, so any change is a behaviour
    // change.
    EXPECT_EQ(hostOverheadUs(), 31.361373746093751);
    EXPECT_EQ(qpipOverheadUs(), 2.52);
}

TEST(Table1, HostOverheadGapStaysNearTwelveX)
{
    // EXPERIMENTS.md: 31.4 us against 2.52 us, a 12.46x gap against
    // the paper's 29.9/2.5 = 11.96x.
    const double paper = 29.9 / 2.5;
    const double gap = hostOverheadUs() / qpipOverheadUs();
    EXPECT_GT(gap, 10.0);
    EXPECT_LE(std::abs(gap - paper), 12.46 - paper);
}

TEST(Table1, TestbedRunsOnAfterTheMeasurements)
{
    // Each measurement returns with traffic still in flight (the last
    // loopback echo; the receive the QPIP echo leaves posted). The
    // testbed must be able to run on past it.
    SocketsTestbed sockets(2, SocketsFabric::GigabitEthernet);
    const LoopbackOverhead o = hostLoopbackOverhead(sockets);
    sockets.sim().runFor(10 * sim::oneMs);
    EXPECT_GT(o.busy, 0u);

    QpipTestbed qpip(2);
    EXPECT_GT(qpipPostPollOverheadUs(qpip), 0.0);
    qpip.sim().runFor(10 * sim::oneMs);
}
