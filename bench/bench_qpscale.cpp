/**
 * @file
 * QP-scale benchmark: completion rate versus QP count under a finite
 * QP-context cache. The 133 MHz LANai keeps QP context blocks in its
 * 2 MB SRAM; once the active working set outgrows the cache (default
 * 1024 contexts), every doorbell and receive touches a cold context
 * and pays the fetch (plus a writeback for the victim) through the
 * serialized firmware processor. A round-robin send pattern across N
 * QPs is the worst case: N at or below the capacity never misses, N
 * above it misses on essentially every touch — the context-cache
 * thrash cliff.
 *
 * Two arms per sweep. RC: one server host parks N reliable QPs on a
 * shared receive queue; one client host connects N QPs and streams
 * 1-byte messages round-robin with a bounded outstanding window. RUD:
 * the same fan-in, but N reliable-datagram peers target ONE server QP
 * whose per-peer state lives in host memory — the server's context
 * working set is a single entry at any N, so its curve rides flat
 * through the RC cliff. The recorded metric is completions per
 * simulated second (firmware-bound, so wall time does not matter),
 * plus the cache hit/miss/eviction counters that explain it.
 *
 * Output is a JSON report (default ./BENCH_qpscale.json, override
 * with --out=<path>). Knobs: QPIP_QPSCALE_MSGS (messages per point,
 * default 16384), QPIP_QPSCALE_CACHE (cache capacity, default 1024),
 * QPIP_QPSCALE_MAXQPS (largest point, default 16384),
 * QPIP_QPSCALE_REPS (wall-clock repetitions, default 3). Each phase
 * gets apps::FlowRun's 1200 simulated seconds: at the slowest point
 * (RC past the default cache, about 17,900 completions per simulated
 * second) that is about 21M messages, past which a point reports
 * completed=false. Everything simulated is seed-1 deterministic;
 * like bench_simspeed, this lives in bench/ and may look at the wall
 * clock for the convenience columns only. Those columns are
 * best-of-N: the sweep runs REPS times with the reps interleaved
 * across points (rep 0 of every point, then rep 1, ...) so
 * page-cache and allocator warm-up is spread evenly instead of
 * flattering whichever point ran last, and each point reports its
 * minimum wall time, also as wallUsPerMsg
 * (wall microseconds per message) so growth with QP count reads off
 * directly. Simulated fields are asserted identical across reps, and
 * the JSON records hostCores for context.
 *
 * heapBytesPerQp is the host-side footprint: the growth of the
 * allocator's in-use bytes (mallinfo2) across a point's set-up, from
 * before the testbed is built to the end of its connect or bind
 * phase, divided by the point's QP count. Fixed costs (testbed, CQs,
 * SRQ) dominate it at small N; the slope between two large points is
 * the marginal bytes per QP. heapBytesPerQpAfterRun is the same
 * growth measured at the end of the messaging phase instead, so it
 * also counts the queue storage each QP keeps once its queues have
 * been used (a ring keeps its slots when it drains). Neither is
 * simulated, so the drift check does not compare them; CI bounds them
 * with bench_drift.py --ceiling instead.
 */

#include <malloc.h>

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
    std::size_t qps = 0;
    std::uint64_t messages = 0;
    sim::Tick simTicks = 0;
    double completionsPerSimSec = 0.0;
    std::uint64_t txHits = 0, txMisses = 0, txEvictions = 0;
    std::uint64_t rxHits = 0, rxMisses = 0, rxEvictions = 0;
    double wallSeconds = 0.0;
    double heapBytesPerQp = 0.0;
    double heapBytesPerQpAfterRun = 0.0;
    bool completed = false;

    double
    wallUsPerMsg() const
    {
        return messages > 0 ? wallSeconds * 1e6 /
                                  static_cast<double>(messages)
                            : 0.0;
    }
};

/** Bytes the allocator has handed out and not had back. */
std::size_t
heapInUse()
{
    const struct mallinfo2 mi = mallinfo2();
    return mi.uordblks + mi.hblkhd;
}

double
perQp(std::size_t heap0, std::size_t n_qps)
{
    return static_cast<double>(heapInUse() - heap0) /
           static_cast<double>(n_qps);
}

/**
 * One sweep point. RC: the server parks @p n_qps reliable QPs on a
 * shared receive queue and the client connects as many. RUD: every
 * client peer talks to ONE server reliable-datagram QP whose per-peer
 * state lives in host memory, so the server NIC touches a single
 * cached context however many peers are active; the client host
 * models @p n_qps independent peer hosts, so its NIC gets an
 * uncontended cache, and the system under test is the server at
 * @p cache_capacity. Then both stream @p messages 1-byte messages
 * round-robin across the QPs, the cache's worst case.
 */
Point
runPoint(bool rud, std::size_t n_qps, std::uint64_t messages,
         std::size_t cache_capacity)
{
    const std::size_t heap0 = heapInUse();
    nic::QpipNicParams serverParams;
    serverParams.qpCacheCapacity = cache_capacity;
    nic::QpipNicParams clientParams = serverParams;
    if (rud)
        clientParams.qpCacheCapacity = n_qps + 16;
    QpipTestbed bed(2, qpipNativeMtu, 1, {clientParams, serverParams});
    auto &client = bed.provider(0);
    auto &server = bed.provider(1);

    constexpr std::size_t srqDepth = 256;
    constexpr std::size_t window = 64; // outstanding sends

    auto scq = server.createCq(1 << 16);
    auto ccq = client.createCq(1 << 16);
    auto srq = server.createSrq(1 << 16);
    std::vector<std::uint8_t> rbuf(srqDepth), sbuf(1);
    auto rmr = server.registerMemory(rbuf);
    auto smr = client.registerMemory(sbuf);
    std::uint64_t srqPosted = 0;
    for (; srqPosted < srqDepth; ++srqPosted)
        srq->postRecv(srqPosted, *rmr, srqPosted % srqDepth, 1);

    Point p;
    p.transport = rud ? "rud" : "rc";
    p.qps = n_qps;
    p.messages = messages;
    verbs::QpAttrs server_attrs;
    server_attrs.srq = srq;
    // Send rings sized to the global window: a single QP can end up
    // holding every outstanding send at small N.
    const verbs::QpAttrs client_attrs{window, 0, nullptr, 0};
    std::vector<std::shared_ptr<verbs::QueuePair>> serverQps;
    std::vector<std::shared_ptr<verbs::QueuePair>> clientQps;
    clientQps.reserve(n_qps);
    inet::SockAddr dest; // RUD sends name the server; RC QPs need none
    if (rud) {
        serverQps.push_back(server.createQp(
            nic::QpType::ReliableDatagram, scq, scq, server_attrs));
        serverQps[0]->bind(800);
        dest = bed.addr(1, 800);
        for (std::size_t i = 0; i < n_qps; ++i) {
            clientQps.push_back(client.createQp(
                nic::QpType::ReliableDatagram, ccq, ccq, client_attrs));
            clientQps.back()->bind(static_cast<std::uint16_t>(2000 + i));
        }
        // Drain the QP-create/bind management work queued on the
        // client firmware so the measured window sees steady state
        // only.
        bed.sim().runFor(sim::oneSec);
    } else {
        // Set-up, one FlowRun phase: flow k is the k-th accept, flow
        // n_qps+i client QP i's connect.
        const FlowRun setup(bed, 2 * n_qps);
        verbs::Acceptor acc(server, 700, scq, scq);
        serverQps.reserve(n_qps);
        for (std::size_t i = 0; i < n_qps; ++i) {
            acc.acceptOne(
                [&](std::shared_ptr<verbs::QueuePair> q) {
                    setup.done(serverQps.size(),
                               bed.host(1).os().curTick());
                    serverQps.push_back(std::move(q));
                },
                server_attrs);
        }
        for (std::size_t i = 0; i < n_qps; ++i) {
            clientQps.push_back(client.createQp(
                nic::QpType::ReliableTcp, ccq, ccq, client_attrs));
            clientQps.back()->connect(bed.addr(1, 700), [&, i](bool ok) {
                if (ok)
                    setup.done(n_qps + i, bed.host(0).os().curTick());
            });
        }
        if (!setup.run())
            return p; // connect storm stalled: report incomplete
    }
    p.heapBytesPerQp = perQp(heap0, n_qps);

    // Steady state starts here: count only the messaging phase.
    const auto &txc = bed.nicOf(0).qpCache();
    const auto &rxc = bed.nicOf(1).qpCache();
    const std::uint64_t txHits0 = txc.hits.value();
    const std::uint64_t txMiss0 = txc.misses.value();
    const std::uint64_t txEvict0 = txc.evictions.value();
    const std::uint64_t rxHits0 = rxc.hits.value();
    const std::uint64_t rxMiss0 = rxc.misses.value();
    const std::uint64_t rxEvict0 = rxc.evictions.value();
    const sim::Tick t0 = bed.sim().now();
    const auto wall0 = std::chrono::steady_clock::now();

    const FlowRun stream(bed, 1);
    std::uint64_t received = 0;
    waitLoop(*scq, [&](verbs::Completion c) {
        if (c.isSend)
            return;
        if (++received == messages)
            stream.done(0, bed.host(1).os().curTick());
        srq->postRecv(srqPosted, *rmr, srqPosted % srqDepth, 1);
        ++srqPosted;
    });

    // Round-robin across all QPs. RUD completions are ack-gated, so
    // the window self-clocks off the server's serialized firmware.
    std::uint64_t sent = 0;
    std::size_t nextQp = 0;
    auto sendNext = [&] {
        if (sent >= messages)
            return;
        if (!clientQps[nextQp]->postSend(sent, *smr, 0, 1, dest)) {
            std::fprintf(stderr, "send ring overflow at qp %zu\n",
                         nextQp);
            std::exit(1);
        }
        nextQp = (nextQp + 1) % n_qps;
        ++sent;
    };
    waitLoop(*ccq, [&](verbs::Completion c) {
        if (c.isSend)
            sendNext();
    });
    for (std::size_t i = 0; i < window && i < messages; ++i)
        sendNext();

    p.completed = stream.run();

    const auto wall1 = std::chrono::steady_clock::now();
    p.heapBytesPerQpAfterRun = perQp(heap0, n_qps);
    p.simTicks = bed.sim().now() - t0;
    p.wallSeconds =
        std::chrono::duration<double>(wall1 - wall0).count();
    p.completionsPerSimSec =
        p.simTicks > 0
            ? static_cast<double>(received) /
                  (static_cast<double>(p.simTicks) /
                   static_cast<double>(sim::oneSec))
            : 0.0;
    p.txHits = txc.hits.value() - txHits0;
    p.txMisses = txc.misses.value() - txMiss0;
    p.txEvictions = txc.evictions.value() - txEvict0;
    p.rxHits = rxc.hits.value() - rxHits0;
    p.rxMisses = rxc.misses.value() - rxMiss0;
    p.rxEvictions = rxc.evictions.value() - rxEvict0;
    return p;
}

void
writeJson(const std::vector<Point> &points, std::size_t cache,
          const std::string &path)
{
    std::vector<std::string> rows;
    for (const auto &p : points) {
        rows.push_back(sim::strfmt(
            "{\"transport\": \"%s\", \"qps\": %zu, "
            "\"completed\": %s, "
            "\"messages\": %llu, \"simTicks\": %llu, "
            "\"completionsPerSimSec\": %.0f, "
            "\"txCtx\": {\"hits\": %llu, \"misses\": %llu, "
            "\"evictions\": %llu}, "
            "\"rxCtx\": {\"hits\": %llu, \"misses\": %llu, "
            "\"evictions\": %llu}, "
            "\"wallSeconds\": %.3f, \"wallUsPerMsg\": %.2f, "
            "\"heapBytesPerQp\": %.0f, \"heapBytesPerQpAfterRun\": %.0f}",
            p.transport, p.qps, p.completed ? "true" : "false",
            static_cast<unsigned long long>(p.messages),
            static_cast<unsigned long long>(p.simTicks),
            p.completionsPerSimSec,
            static_cast<unsigned long long>(p.txHits),
            static_cast<unsigned long long>(p.txMisses),
            static_cast<unsigned long long>(p.txEvictions),
            static_cast<unsigned long long>(p.rxHits),
            static_cast<unsigned long long>(p.rxMisses),
            static_cast<unsigned long long>(p.rxEvictions),
            p.wallSeconds, p.wallUsPerMsg(), p.heapBytesPerQp,
            p.heapBytesPerQpAfterRun));
    }
    qpip::bench::writeRecord(path, "qpscale",
                             {{"qpCacheCapacity", std::to_string(cache)}},
                             "points", rows);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out =
        qpip::bench::outPath(argc, argv, "BENCH_qpscale.json");
    const auto messages =
        static_cast<std::uint64_t>(envKnob("QPIP_QPSCALE_MSGS", 16384));
    const std::size_t cache = envKnob("QPIP_QPSCALE_CACHE", 1024);
    const std::size_t maxQps = envKnob("QPIP_QPSCALE_MAXQPS", 16384);
    const std::size_t reps = envKnob("QPIP_QPSCALE_REPS", 3);

    // The sweep: the RC fan-in, then the scale-out arm where N peers
    // fan into one reliable-datagram QP (the server's context working
    // set stays at one entry, so the curve should ride flat through
    // the RC arm's cache cliff).
    struct Sweep
    {
        bool rud;
        std::size_t qps;
    };
    std::vector<Sweep> sweep;
    for (std::size_t n = 16; n <= maxQps; n *= 4)
        sweep.push_back({false, n});
    for (std::size_t n = 16; n <= maxQps; n *= 4)
        sweep.push_back({true, n});

    // Best-of-N, reps interleaved across points (see bench_common.hh).
    const auto points = qpip::bench::bestOfN(
        sweep.size(), reps,
        [&](std::size_t i) {
            return runPoint(sweep[i].rud, sweep[i].qps, messages, cache);
        },
        [](const Point &a, const Point &b) {
            return a.simTicks == b.simTicks &&
                   a.completionsPerSimSec == b.completionsPerSimSec;
        },
        [](Point &kept, const Point &p) {
            kept.wallSeconds = std::min(kept.wallSeconds, p.wallSeconds);
        },
        [](const Point &p) {
            return std::string(p.transport) + "/" +
                   std::to_string(p.qps);
        });

    std::printf("=== completion rate vs QP count (cache %zu contexts, "
                "%llu msgs/point) ===\n",
                cache, static_cast<unsigned long long>(messages));
    std::printf("%5s %8s %14s %16s %12s %12s %10s %12s %10s %10s\n",
                "arm", "qps", "msgs", "compl/simsec", "txMisses",
                "rxMisses", "wall_s", "wall_us/msg", "heapB/qp",
                "runB/qp");
    for (const auto &p : points) {
        std::printf("%5s %8zu %14llu %16.0f %12llu %12llu %10.2f "
                    "%12.2f %10.0f %10.0f%s\n",
                    p.transport, p.qps,
                    static_cast<unsigned long long>(p.messages),
                    p.completionsPerSimSec,
                    static_cast<unsigned long long>(p.txMisses),
                    static_cast<unsigned long long>(p.rxMisses),
                    p.wallSeconds, p.wallUsPerMsg(), p.heapBytesPerQp,
                    p.heapBytesPerQpAfterRun,
                    qpip::bench::incompleteMark(p.completed));
    }
    writeJson(points, cache, out);
    return qpip::bench::recordExit(points);
}
