/**
 * @file
 * Shared driver for the NI-occupancy tables (Tables 2 and 3): a
 * one-way stream of 1-byte reliable-QP messages. With traffic flowing
 * one way, the two NICs' stage statistics separate cleanly into the
 * paper's columns:
 *
 *   sender NIC  tx stages  -> Table 2 "Data Send"
 *   receiver NIC tx stages -> Table 2 "ACK Send"
 *   receiver NIC rx stages -> Table 3 "Data Recv"
 *   sender NIC  rx stages  -> Table 3 "ACK Recv"
 */

#pragma once

#include "apps/testbed.hh"
#include "apps/verbs_util.hh"
#include "bench_common.hh"

namespace qpip::bench {

/** Run the one-way 1-byte message stream; NIC stats accumulate. */
inline bool
runOccupancyWorkload(apps::QpipTestbed &bed, std::size_t messages)
{
    using namespace qpip;
    auto &prov_tx = bed.provider(0);
    auto &prov_rx = bed.provider(1);
    auto cq_tx = prov_tx.createCq(8192);
    auto cq_rx = prov_rx.createCq(8192);
    auto buf_tx = std::make_shared<std::vector<std::uint8_t>>(64, 1);
    auto buf_rx = std::make_shared<std::vector<std::uint8_t>>(64, 0);
    auto mr_tx = prov_tx.registerMemory(*buf_tx);
    auto mr_rx = prov_rx.registerMemory(*buf_rx);

    // Two FlowRun phases: the connect, then the stream, done when
    // the receiver has every message.
    const apps::FlowRun connect(bed, 1);
    const apps::FlowRun stream(bed, 1);
    auto acceptor = std::make_shared<verbs::Acceptor>(prov_rx, 7,
                                                      cq_rx, cq_rx);
    auto received = std::make_shared<std::size_t>(0);
    auto qp_rx_keep =
        std::make_shared<std::shared_ptr<verbs::QueuePair>>();
    acceptor->acceptOne(
        [&, received, qp_rx_keep, stream,
         mr_rx](std::shared_ptr<verbs::QueuePair> qp) {
            *qp_rx_keep = qp;
            qp->postRecv(1, *mr_rx, 0, 1);
            apps::periodicReaper(
                bed.provider(1), 20 * sim::oneUs,
                [&bed, qp, cq_rx, mr_rx, received, messages,
                 stream]() -> bool {
                    verbs::Completion c;
                    while (cq_rx->poll(c)) {
                        if (!c.isSend) {
                            ++*received;
                            qp->postRecv(1, *mr_rx, 0, 1);
                        }
                    }
                    if (*received < messages)
                        return true;
                    stream.done(0, bed.host(1).os().curTick());
                    return false;
                });
        });

    auto qp_tx = prov_tx.createQp(nic::QpType::ReliableTcp, cq_tx,
                                  cq_tx, 64, 4);
    qp_tx->connect(bed.addr(1, 7), [&](bool ok) {
        if (ok)
            connect.done(0, bed.host(0).os().curTick());
    });
    if (!connect.run())
        return false;

    // Reset NIC stats after connection setup so the tables only see
    // steady-state message traffic.
    bed.nicOf(0).fw().resetStats();
    bed.nicOf(1).fw().resetStats();

    auto posted = std::make_shared<std::size_t>(0);
    auto completed = std::make_shared<std::size_t>(0);
    auto top_up = [qp_tx, mr_tx, posted, completed, messages] {
        while (*posted < messages && *posted - *completed < 16) {
            if (!qp_tx->postSend(*posted, *mr_tx, 0, 1))
                break;
            ++*posted;
        }
    };
    top_up();
    apps::periodicReaper(prov_tx, 20 * sim::oneUs,
                         [cq_tx, completed, top_up,
                          messages]() -> bool {
                             verbs::Completion c;
                             while (cq_tx->poll(c)) {
                                 if (c.isSend)
                                     ++*completed;
                             }
                             top_up();
                             return *completed < messages;
                         });

    return stream.run();
}

/** Registry path of a firmware stage's occupancy SampleStat. */
inline std::string
stagePath(nic::QpipNic &nic, nic::FwStage stage)
{
    return nic.fw().name() + ".stage." + nic::fwStageTag(stage);
}

/** Stage mean in microseconds from the stat registry (0 when empty). */
inline double
stageMeanUs(nic::QpipNic &nic, nic::FwStage stage)
{
    return statMean(nic.statRegistry(), stagePath(nic, stage));
}

inline Row
stageRow(const std::string &name, double paper, bool has_paper,
         nic::QpipNic &nic, nic::FwStage stage)
{
    Row r;
    r.name = name;
    r.paper = paper;
    r.hasPaper = has_paper;
    r.measured = stageMeanUs(nic, stage);
    r.unit = "us";
    r.simSeconds = 1e-4;
    r.counters["samples"] = static_cast<double>(
        statCount(nic.statRegistry(), stagePath(nic, stage)));
    return r;
}

} // namespace qpip::bench
