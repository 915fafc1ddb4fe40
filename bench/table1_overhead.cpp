/**
 * @file
 * Table 1: host overhead for the transmit and receive paths of a
 * 1-byte TCP message.
 *
 *  - Host-based IP: measured as the paper does — round trips through
 *    the loopback interface; one message crosses the send path and
 *    the receive path once, so per-message overhead is the host CPU
 *    time per loopback half-round-trip.
 *  - QPIP: directly timing the communication methods from user space:
 *    the CPU cycles consumed by PostSend() plus a successful Poll().
 */

#include "apps/pingpong.hh"
#include "bench_common.hh"

using namespace qpip;
using namespace qpip::apps;
using qpip::bench::Row;

namespace {

constexpr double hostMhz = 550.0;

/** Host-based: loopback TCP echo, CPU time per message. */
Row
hostLoopbackRow()
{
    SocketsTestbed bed(2, SocketsFabric::GigabitEthernet);
    const LoopbackOverhead o = hostLoopbackOverhead(bed);
    Row r;
    r.name = "Host-based IP (loopback)";
    r.paper = 29.9;
    r.measured = o.usPerMsg;
    r.unit = "us";
    r.simSeconds = sim::ticksToSec(o.busy);
    r.counters["cycles"] = o.usPerMsg * hostMhz;
    r.counters["paper_cycles"] = 16445;
    return r;
}

/** QPIP: cycles consumed by PostSend + successful Poll. */
Row
qpipVerbsRow()
{
    QpipTestbed bed(2);
    const double us = qpipPostPollOverheadUs(bed);
    Row r;
    r.name = "QPIP (PostSend + Poll)";
    r.paper = 2.5;
    r.measured = us;
    r.unit = "us";
    r.simSeconds = 1e-3;
    r.counters["cycles"] = us * hostMhz;
    r.counters["paper_cycles"] = 1386;
    return r;
}

std::vector<Row>
build()
{
    return {hostLoopbackRow(), qpipVerbsRow()};
}

} // namespace

QPIP_BENCH_MAIN("Table 1: host overhead, 1-byte TCP message", build)
