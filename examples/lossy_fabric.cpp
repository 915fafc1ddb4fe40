/**
 * @file
 * The offloaded transport riding through induced faults: a reliable
 * QP transfer over a fabric that randomly drops, duplicates and
 * corrupts packets. The firmware TCP retransmits through all of it
 * and the posted buffers come out bit-exact — the "wealth of
 * understanding and services" of inter-network protocols the paper
 * brings to the SAN.
 *
 *   $ ./lossy_fabric [drop_percent]
 */

#include <cstdio>
#include <cstdlib>

#include "apps/testbed.hh"
#include "apps/verbs_util.hh"

using namespace qpip;
using namespace qpip::apps;

int
main(int argc, char **argv)
{
    const double drop =
        (argc > 1 ? std::atof(argv[1]) : 2.0) / 100.0;
    QpipTestbed bed(2, 9000, /*seed=*/42);
    for (int node = 0; node < 2; ++node) {
        auto &faults = bed.fabric().linkFor(node).faultConfig();
        faults.dropProb = drop;
        faults.dupProb = drop / 4;
        faults.corruptProb = drop / 4;
    }
    std::printf("fabric faults: drop=%.1f%% dup=%.2f%% corrupt=%.2f%%\n",
                drop * 100, drop * 25, drop * 25);

    constexpr std::size_t nMsgs = 64;
    constexpr std::size_t msgBytes = 20000; // fragments across the MTU

    // Receiver.
    auto rcq = bed.provider(1).createCq();
    std::vector<std::uint8_t> rbuf(msgBytes);
    auto rmr = bed.provider(1).registerMemory(rbuf);
    verbs::Acceptor acceptor(bed.provider(1), 7, rcq, rcq);
    // The run's two flows: the receiver's last delivery and the
    // sender's last ACK.
    const FlowRun run(bed, 2);
    std::size_t received = 0, corrupt = 0;
    std::shared_ptr<verbs::QueuePair> rqp;
    acceptor.acceptOne([&](std::shared_ptr<verbs::QueuePair> qp) {
        rqp = qp;
        qp->postRecv(1, *rmr, 0, msgBytes);
    });
    waitLoop(*rcq, [&](verbs::Completion c) {
        if (c.isSend)
            return;
        // Verify the payload of every delivered message.
        const auto tag = static_cast<std::uint8_t>(received);
        for (std::size_t i = 0; i < c.byteLen; ++i) {
            if (rbuf[i] != static_cast<std::uint8_t>(tag + i * 7)) {
                ++corrupt;
                break;
            }
        }
        if (++received == nMsgs)
            run.done(0, bed.host(1).os().curTick());
        rqp->postRecv(1, *rmr, 0, msgBytes);
    });

    // Sender: keep a few messages in flight.
    auto scq = bed.provider(0).createCq();
    std::vector<std::uint8_t> sbuf(msgBytes);
    auto smr = bed.provider(0).registerMemory(sbuf);
    auto sqp = bed.provider(0).createQp(nic::QpType::ReliableTcp, scq,
                                        scq, 16, 4);
    std::size_t posted = 0, acked = 0;
    auto post_next = [&] {
        if (posted >= nMsgs)
            return;
        const auto tag = static_cast<std::uint8_t>(posted);
        for (std::size_t i = 0; i < msgBytes; ++i)
            sbuf[i] = static_cast<std::uint8_t>(tag + i * 7);
        sqp->postSend(posted, *smr, 0, msgBytes);
        ++posted;
    };
    sqp->connect(bed.addr(1, 7), [&](bool ok) {
        if (ok)
            post_next(); // strictly one at a time: sbuf is reused
    });
    waitLoop(*scq, [&](verbs::Completion c) {
        if (c.isSend && c.status == verbs::WcStatus::Success) {
            if (++acked == nMsgs)
                run.done(1, bed.host(0).os().curTick());
            post_next();
        }
    });

    run.run();

    auto &conn_stats =
        bed.nicOf(0).connectionOf(sqp->num())->stats();
    std::printf("delivered %zu/%zu messages, %zu corrupted payloads\n",
                received, nMsgs, corrupt);
    std::printf("firmware TCP fought through: %llu retransmits "
                "(%llu timeouts, %llu fast), %llu segments\n",
                static_cast<unsigned long long>(
                    conn_stats.retransmits.value()),
                static_cast<unsigned long long>(
                    conn_stats.timeouts.value()),
                static_cast<unsigned long long>(
                    conn_stats.fastRetransmits.value()),
                static_cast<unsigned long long>(
                    conn_stats.segsOut.value()));
    std::uint64_t drops = 0;
    for (net::NodeId node = 0; node < 2; ++node) {
        for (int side = 0; side < 2; ++side) {
            drops += bed.fabric().linkFor(node).counters(side)
                         .faultDrops.value();
        }
    }
    std::printf("link drops: %llu (injected)\n",
                static_cast<unsigned long long>(drops));
    const bool ok = received == nMsgs && corrupt == 0;
    std::printf("%s\n", ok ? "ok: all data intact" : "FAILED");
    return ok ? 0 : 1;
}
