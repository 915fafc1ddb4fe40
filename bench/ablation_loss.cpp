/**
 * @file
 * Ablation: loss sensitivity of the message-per-segment mapping. The
 * paper accepts that "TCP segments are arbitrarily sized and
 * performance could suffer if subsequent IP fragments are lost" —
 * acceptable because SAN loss is rare. This bench injects packet loss
 * on the fabric links and sweeps the MTU: at small MTUs a 16 KB
 * message rides 12 fragments, so the per-message loss probability is
 * ~12x the per-packet rate and every loss costs a whole-message
 * retransmission.
 */

#include "apps/ttcp.hh"
#include "bench_common.hh"

using namespace qpip;
using namespace qpip::apps;
using qpip::bench::Row;

namespace {

Row
runPoint(std::uint32_t mtu, double loss)
{
    QpipTestbed bed(2, mtu);
    bed.fabric().linkFor(0).faultConfig().dropProb = loss;
    bed.fabric().linkFor(1).faultConfig().dropProb = loss;
    auto t = runQpipTtcp(bed, std::size_t(4) << 20);
    Row r;
    r.name = "mtu=" + std::to_string(mtu) +
             " loss=" + std::to_string(loss);
    r.hasPaper = false;
    r.measured = t.mbPerSec;
    r.unit = "MB/s";
    r.simSeconds = t.elapsedMs * 1e-3;
    r.counters["completed"] = t.completed ? 1 : 0;
    return r;
}

std::vector<Row>
build()
{
    std::vector<Row> rows;
    for (std::uint32_t mtu : {1500u, 9000u, qpipNativeMtu}) {
        for (double loss : {0.0, 1e-3, 1e-2}) {
            rows.push_back(runPoint(mtu, loss));
        }
    }
    return rows;
}

} // namespace

QPIP_BENCH_MAIN("Ablation: packet loss vs message-per-segment mapping",
                build)
