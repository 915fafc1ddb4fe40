/**
 * @file
 * Small-message rate benchmark: completions per simulated second with
 * and without the batching path — chained posts (postSendList), the
 * doorbell coalescing window and completion-event moderation — across
 * 64..512-byte messages on the RC and RUD transports.
 *
 * The unbatched arm is the paper's per-post discipline: one doorbell
 * ring, one DoorbellProcess pass and one Schedule pass per WR, one
 * host notification per completion. The batched arm posts chains of
 * QPIP_MSGRATE_CHAIN WRs with a single batch doorbell (the FSM pays
 * the full pass once plus doorbellPerWr per extra WR and one Schedule
 * for the run), folds back-to-back singleton rings inside the
 * coalescing window, and lets an armed CQ accumulate CQEs before the
 * notify upcall. At these sizes the serialized 133 MHz firmware is
 * the bottleneck, so the saved per-WR doorbell/schedule occupancy
 * shows up directly as message rate.
 *
 * Output is a JSON report (default ./BENCH_msgrate.json, override
 * with --out=<path>) carrying the doorbell and CQ-moderation counters
 * alongside each rate. Knobs: QPIP_MSGRATE_MSGS (messages per point,
 * default 8192), QPIP_MSGRATE_CHAIN (chain length, default 16). Each
 * phase gets apps::FlowRun's 1200 simulated seconds: at the slowest
 * point (RC, unbatched, 512 B, about 20,600 completions per simulated
 * second) that is about 24M messages, past which a point reports
 * completed=false.
 * Everything simulated is seed-1 deterministic; wall time is a
 * convenience column only.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/testbed.hh"
#include "apps/verbs_util.hh"
#include "bench_common.hh"
#include "sim/logging.hh"

using namespace qpip;
using namespace qpip::apps;
using qpip::bench::envKnob;

namespace {

struct Point
{
    const char *transport = "rc";
    bool batched = false;
    std::size_t msgBytes = 0;
    std::uint64_t messages = 0;
    std::size_t chain = 1;
    sim::Tick simTicks = 0;
    double completionsPerSimSec = 0.0;
    std::uint64_t dbRings = 0;
    std::uint64_t dbCoalesced = 0;
    std::uint64_t dbBatchedWrs = 0;
    std::uint64_t cqNotifies = 0;
    std::uint64_t cqCoalesced = 0;
    double wallSeconds = 0.0;
    bool completed = false;
};

/**
 * One sweep point: a single client QP streams @p messages of
 * @p msg_bytes to one server QP feeding an SRQ, with a bounded
 * outstanding window. The batched arm posts send chains of
 * @p chain WRs and replenishes the SRQ in equal chains; the
 * unbatched arm posts and replenishes one WR at a time.
 */
Point
runPoint(bool rud, bool batched, std::size_t msg_bytes,
         std::uint64_t messages, std::size_t chain)
{
    nic::QpipNicParams params;
    if (batched) {
        // ~2 us of 133 MHz cycles: wide enough to fold a burst of
        // back-to-back singleton rings (SRQ replenish, ack-driven
        // refills), narrow enough not to defer an isolated post.
        params.doorbellCoalesceCycles = 266;
        // Notify after 8 CQEs or ~10 us, whichever first.
        params.cqModerationCount = 8;
        params.cqModerationCycles = 1330;
    }
    QpipTestbed bed(2, qpipNativeMtu, 1, params);
    auto &client = bed.provider(0);
    auto &server = bed.provider(1);

    constexpr std::size_t srqDepth = 256;
    constexpr std::size_t window = 64; // outstanding sends

    auto scq = server.createCq(1 << 16);
    auto ccq = client.createCq(1 << 16);
    auto srq = server.createSrq(1 << 16);
    std::vector<std::uint8_t> rbuf(srqDepth * msg_bytes);
    std::vector<std::uint8_t> sbuf(msg_bytes);
    auto rmr = server.registerMemory(rbuf);
    auto smr = client.registerMemory(sbuf);

    std::uint64_t srqPosted = 0;
    const auto srqSlotOff = [&](std::uint64_t i) {
        return (i % srqDepth) * msg_bytes;
    };
    for (; srqPosted < srqDepth; ++srqPosted)
        srq->postRecv(srqPosted, *rmr, srqSlotOff(srqPosted),
                      msg_bytes);

    Point p;
    p.transport = rud ? "rud" : "rc";
    p.batched = batched;
    p.msgBytes = msg_bytes;
    p.messages = messages;
    p.chain = batched ? chain : 1;

    verbs::QpAttrs server_attrs;
    server_attrs.srq = srq;
    std::shared_ptr<verbs::QueuePair> serverQp;
    std::shared_ptr<verbs::QueuePair> clientQp;
    inet::SockAddr serverAddr;
    if (rud) {
        serverQp = server.createQp(nic::QpType::ReliableDatagram, scq,
                                   scq, server_attrs);
        serverQp->bind(800);
        serverAddr = bed.addr(1, 800);
        clientQp = client.createQp(nic::QpType::ReliableDatagram, ccq,
                                   ccq,
                                   verbs::QpAttrs{window, 0, nullptr, 0});
        clientQp->bind(2000);
        // Drain the create/bind management work before measuring.
        bed.sim().runFor(sim::oneSec);
    } else {
        // Set-up: the accept and the connect are its two flows.
        const FlowRun setup(bed, 2);
        verbs::Acceptor acc(server, 700, scq, scq);
        acc.acceptOne(
            [&](std::shared_ptr<verbs::QueuePair> q) {
                serverQp = std::move(q);
                setup.done(0, bed.host(1).os().curTick());
            },
            server_attrs);
        clientQp = client.createQp(nic::QpType::ReliableTcp, ccq, ccq,
                                   verbs::QpAttrs{window, 0, nullptr, 0});
        clientQp->connect(bed.addr(1, 700), [&](bool ok) {
            if (ok)
                setup.done(1, bed.host(0).os().curTick());
        });
        if (!setup.run())
            return p; // rendezvous stalled: report incomplete
    }

    // Steady state starts here: count only the messaging phase.
    const auto &cdb = bed.nicOf(0).doorbells();
    const std::uint64_t dbRings0 = cdb.rings.value();
    const std::uint64_t dbCoalesced0 =
        cdb.coalesced.value() + bed.nicOf(1).doorbells().coalesced.value();
    const std::uint64_t dbBatched0 = cdb.batchedWrs.value();
    const std::uint64_t cqNotifies0 = bed.nicOf(0).cqNotifies.value() +
                                      bed.nicOf(1).cqNotifies.value();
    const std::uint64_t cqCoalesced0 =
        bed.nicOf(0).cqCoalesced.value() +
        bed.nicOf(1).cqCoalesced.value();
    const sim::Tick t0 = bed.sim().now();
    const auto wall0 = std::chrono::steady_clock::now();

    // Server: repost receive WRs as messages land — chained in the
    // batched arm, one at a time otherwise.
    const FlowRun stream(bed, 1);
    std::uint64_t received = 0;
    std::uint64_t consumedSinceRepost = 0;
    waitLoop(*scq, [&](verbs::Completion c) {
        if (c.isSend)
            return;
        if (++received == messages)
            stream.done(0, bed.host(1).os().curTick());
        ++consumedSinceRepost;
        const std::size_t replenish = batched ? chain : 1;
        if (consumedSinceRepost >= replenish) {
            std::vector<verbs::RecvWrSpec> specs;
            specs.reserve(consumedSinceRepost);
            for (std::uint64_t i = 0; i < consumedSinceRepost; ++i) {
                specs.push_back({srqPosted, rmr.get(),
                                 srqSlotOff(srqPosted), msg_bytes});
                ++srqPosted;
            }
            if (batched) {
                srq->postRecvList(specs);
            } else {
                for (const auto &s : specs)
                    srq->postRecv(s.wrId, *s.mr, s.offset, s.length);
            }
            consumedSinceRepost = 0;
        }
    });

    // Client: keep up to `window` sends outstanding. The batched arm
    // tops up in chains through postSendList; the unbatched arm posts
    // one WR per send completion.
    std::uint64_t sent = 0;
    std::uint64_t inflight = 0;
    auto topUp = [&] {
        if (batched) {
            while (sent < messages && inflight + chain <= window) {
                const std::size_t run = static_cast<std::size_t>(
                    std::min<std::uint64_t>(chain, messages - sent));
                std::vector<verbs::SendWrSpec> specs;
                specs.reserve(run);
                for (std::size_t i = 0; i < run; ++i)
                    specs.push_back({sent + i, smr.get(), 0, msg_bytes,
                                     serverAddr});
                if (!clientQp->postSendList(specs)) {
                    std::fprintf(stderr, "chained post overflow\n");
                    std::exit(1);
                }
                sent += run;
                inflight += run;
            }
            return;
        }
        while (sent < messages && inflight < window) {
            if (!clientQp->postSend(sent, *smr, 0, msg_bytes,
                                    serverAddr)) {
                std::fprintf(stderr, "send ring overflow\n");
                std::exit(1);
            }
            ++sent;
            ++inflight;
        }
    };
    waitLoop(*ccq, [&](verbs::Completion c) {
        if (!c.isSend)
            return;
        --inflight;
        topUp();
    });
    topUp();

    p.completed = stream.run();

    const auto wall1 = std::chrono::steady_clock::now();
    p.simTicks = bed.sim().now() - t0;
    p.wallSeconds =
        std::chrono::duration<double>(wall1 - wall0).count();
    p.completionsPerSimSec =
        p.simTicks > 0
            ? static_cast<double>(received) /
                  (static_cast<double>(p.simTicks) /
                   static_cast<double>(sim::oneSec))
            : 0.0;
    p.dbRings = cdb.rings.value() - dbRings0;
    p.dbCoalesced = cdb.coalesced.value() +
                    bed.nicOf(1).doorbells().coalesced.value() -
                    dbCoalesced0;
    p.dbBatchedWrs = cdb.batchedWrs.value() - dbBatched0;
    p.cqNotifies = bed.nicOf(0).cqNotifies.value() +
                   bed.nicOf(1).cqNotifies.value() - cqNotifies0;
    p.cqCoalesced = bed.nicOf(0).cqCoalesced.value() +
                    bed.nicOf(1).cqCoalesced.value() - cqCoalesced0;
    return p;
}

void
writeJson(const std::vector<Point> &points, std::size_t chain,
          const std::string &path)
{
    std::vector<std::string> rows;
    for (const auto &p : points) {
        rows.push_back(sim::strfmt(
            "{\"transport\": \"%s\", \"batched\": %s, "
            "\"msgBytes\": %zu, \"completed\": %s, "
            "\"messages\": %llu, \"simTicks\": %llu, "
            "\"completionsPerSimSec\": %.0f, "
            "\"doorbells\": {\"rings\": %llu, \"coalesced\": %llu, "
            "\"batchedWrs\": %llu}, "
            "\"cq\": {\"notifies\": %llu, \"coalesced\": %llu}, "
            "\"wallSeconds\": %.3f}",
            p.transport, p.batched ? "true" : "false", p.msgBytes,
            p.completed ? "true" : "false",
            static_cast<unsigned long long>(p.messages),
            static_cast<unsigned long long>(p.simTicks),
            p.completionsPerSimSec,
            static_cast<unsigned long long>(p.dbRings),
            static_cast<unsigned long long>(p.dbCoalesced),
            static_cast<unsigned long long>(p.dbBatchedWrs),
            static_cast<unsigned long long>(p.cqNotifies),
            static_cast<unsigned long long>(p.cqCoalesced),
            p.wallSeconds));
    }
    qpip::bench::writeRecord(path, "msgrate",
                             {{"chain", std::to_string(chain)}},
                             "points", rows);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out =
        qpip::bench::outPath(argc, argv, "BENCH_msgrate.json");
    const auto messages =
        static_cast<std::uint64_t>(envKnob("QPIP_MSGRATE_MSGS", 8192));
    const std::size_t chain = envKnob("QPIP_MSGRATE_CHAIN", 16);
    const std::size_t reps = envKnob("QPIP_MSGRATE_REPS", 3);

    struct Sweep
    {
        bool rud;
        bool batched;
        std::size_t bytes;
    };
    std::vector<Sweep> sweep;
    for (const bool rud : {false, true}) {
        for (const bool batched : {false, true}) {
            for (const std::size_t bytes : {64, 128, 256, 512})
                sweep.push_back({rud, batched, bytes});
        }
    }

    // Best-of-N, reps interleaved across points (see bench_common.hh).
    const auto points = qpip::bench::bestOfN(
        sweep.size(), reps,
        [&](std::size_t i) {
            return runPoint(sweep[i].rud, sweep[i].batched,
                            sweep[i].bytes, messages, chain);
        },
        [](const Point &a, const Point &b) {
            return a.simTicks == b.simTicks &&
                   a.completionsPerSimSec == b.completionsPerSimSec &&
                   a.dbRings == b.dbRings && a.cqNotifies == b.cqNotifies;
        },
        [](Point &kept, const Point &p) {
            kept.wallSeconds = std::min(kept.wallSeconds, p.wallSeconds);
        },
        [](const Point &p) {
            return std::string(p.transport) +
                   (p.batched ? "/batched/" : "/unbatched/") +
                   std::to_string(p.msgBytes);
        });

    std::printf("=== small-message rate, batched vs unbatched "
                "(chain %zu, %llu msgs/point, best of %zu) ===\n",
                chain, static_cast<unsigned long long>(messages),
                reps);
    std::printf("%5s %8s %9s %16s %9s %10s %11s %10s %10s\n", "arm",
                "batched", "bytes", "compl/simsec", "dbRings",
                "dbFolded", "batchedWrs", "notifies", "cqFolded");
    for (const auto &p : points) {
        std::printf(
            "%5s %8s %9zu %16.0f %9llu %10llu %11llu %10llu "
            "%10llu%s\n",
            p.transport, p.batched ? "yes" : "no", p.msgBytes,
            p.completionsPerSimSec,
            static_cast<unsigned long long>(p.dbRings),
            static_cast<unsigned long long>(p.dbCoalesced),
            static_cast<unsigned long long>(p.dbBatchedWrs),
            static_cast<unsigned long long>(p.cqNotifies),
            static_cast<unsigned long long>(p.cqCoalesced),
            qpip::bench::incompleteMark(p.completed));
    }
    writeJson(points, chain, out);
    return qpip::bench::recordExit(points);
}
