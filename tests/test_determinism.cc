/**
 * @file
 * Deterministic replay: two simulations built with the same seed must
 * produce bit-identical observable state — the full stats-registry
 * JSON dump and the full event-trace JSON — for both a clean QPIP
 * ping-pong and a lossy-fabric sockets TCP transfer where every
 * retransmission path is exercised. This pins down the simulator's
 * reproducibility guarantee: all randomness flows from per-object
 * streams seeded from the simulation seed, and event ordering is
 * stable. The lossy transfers' link-layer
 * outcome is also pinned to absolute values, which run-to-run
 * comparison alone cannot catch drifting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/disk.hh"
#include "apps/verbs_util.hh"
#include "apps/nbd.hh"
#include "apps/pingpong.hh"
#include "apps/testbed.hh"
#include "apps/ttcp.hh"
#include "engine_stats.hh"
#include "net/link.hh"
#include "net/pcap.hh"
#include "net/topology.hh"
#include "sim/parallel_engine.hh"
#include "sim/simulation.hh"
#include "sim/stat_registry.hh"
#include "sim/trace.hh"

using namespace qpip;
using qpip::test::withoutEngineStats;

namespace {

/** A (stat path, counter value) pair of one run's registry. */
using CounterPin = std::pair<std::string, std::uint64_t>;

/**
 * What the link pins record of one run: every transmit and fault
 * counter, and a digest of every link direction's capture.
 */
struct LinkPins
{
    std::vector<CounterPin> counters;
    /** FNV-1a of each direction's pcap image, in (edge, side) order. */
    std::vector<std::uint64_t> captureDigests;
};

/** Observable end state of one run. */
struct RunArtifacts
{
    std::string statsJson;
    std::string traceJson;
    sim::Tick endTick = 0;
    bool completed = false;
    std::uint64_t faultEvents = 0;
    LinkPins pins;
};

RunArtifacts
runQpipPingPong(std::uint64_t seed)
{
    apps::QpipTestbed bed(2, apps::qpipNativeMtu, seed);
    bed.sim().tracer().enable();
    auto res = apps::runQpipTcpPingPong(bed, 16, 64);
    RunArtifacts out;
    out.completed = res.completed;
    out.statsJson = bed.sim().stats().jsonDump();
    out.traceJson = bed.sim().tracer().json();
    out.endTick = bed.sim().now();
    return out;
}

/** Tap both directions of every fabric edge, in deterministic order. */
std::vector<std::unique_ptr<net::PcapWriter>>
tapAllEdges(net::Fabric &fabric)
{
    std::vector<std::unique_ptr<net::PcapWriter>> taps;
    for (const auto &e : fabric.edges()) {
        for (int side = 0; side < 2; ++side) {
            taps.push_back(std::make_unique<net::PcapWriter>());
            net::tapLinkSide(*e.link, side, *taps.back());
        }
    }
    return taps;
}

std::uint64_t
fnv1a(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 14695981039346656037ull;
    for (const std::uint8_t b : bytes) {
        h ^= b;
        h *= 1099511628211ull;
    }
    return h;
}

LinkPins
collectLinkPins(const sim::StatRegistry &stats,
                const std::vector<std::unique_ptr<net::PcapWriter>> &taps)
{
    LinkPins pins;
    for (const char *pattern :
         {"*.packetsSent", "*.bytesSent", "*.queueDrops",
          "*.oversizeDrops", "*.side?.fault*"}) {
        for (const auto &path : stats.match(pattern))
            pins.counters.emplace_back(path, stats.counterValue(path));
    }
    for (const auto &t : taps)
        pins.captureDigests.push_back(fnv1a(t->bytes()));
    return pins;
}

RunArtifacts
runLossyTransfer(std::uint64_t seed)
{
    apps::SocketsTestbed bed(2, apps::SocketsFabric::GigabitEthernet,
                             seed);
    bed.sim().tracer().enable();
    // A genuinely hostile wire: loss, duplication, corruption and
    // reordering on both spokes, so retransmission and
    // fast-retransmit paths all run.
    for (net::NodeId node = 0; node < 2; ++node) {
        auto &faults = bed.fabric().linkFor(node).faultConfig();
        faults.dropProb = 0.02;
        faults.dupProb = 0.01;
        faults.corruptProb = 0.01;
        faults.reorderProb = 0.05;
    }
    const auto taps = tapAllEdges(bed.fabric());
    auto res = apps::runSocketsTtcp(bed, 128 * 1024);
    RunArtifacts out;
    out.completed = res.completed;
    out.statsJson = bed.sim().stats().jsonDump();
    out.traceJson = bed.sim().tracer().json();
    out.endTick = bed.sim().now();
    for (const auto &path : bed.sim().stats().match("*.side?.fault*"))
        out.faultEvents += bed.sim().stats().counterValue(path);
    out.pins = collectLinkPins(bed.sim().stats(), taps);
    return out;
}

/**
 * host0 -> host1 ttcp over a 4-host star whose spokes 0 and 1 are
 * lossy, started at a fixed tick. With @p warmup, hosts 2 and 3 first
 * open TCP connections to each other over their lossless spokes and
 * finish transfers on them — drawing initial sequence numbers that the
 * measured transfer never sees.
 */
LinkPins
runStarTransfer(bool warmup)
{
    apps::SocketsTestbed bed(4, apps::SocketsFabric::GigabitEthernet, 99);
    std::vector<std::unique_ptr<net::PcapWriter>> taps;
    for (net::NodeId node = 0; node < 2; ++node) {
        net::Link &link = bed.fabric().linkFor(node);
        auto &faults = link.faultConfig();
        faults.dropProb = 0.02;
        faults.dupProb = 0.01;
        faults.corruptProb = 0.01;
        faults.reorderProb = 0.05;
        for (int side = 0; side < 2; ++side) {
            taps.push_back(std::make_unique<net::PcapWriter>());
            net::tapLinkSide(link, side, *taps.back());
        }
    }
    if (warmup) {
        const auto w = apps::runSocketsTtcpPairs(bed, {{2, 3}, {3, 2}},
                                                 16 * 1024);
        EXPECT_TRUE(w.completed);
    }
    const sim::Tick start = sim::oneSec;
    EXPECT_LT(bed.sim().now(), start);
    bed.sim().runUntil(start);
    EXPECT_TRUE(apps::runSocketsTtcp(bed, 64 * 1024).completed);

    LinkPins pins;
    for (const char *pattern :
         {"fabric.link0.side?.fault*", "fabric.link1.side?.fault*"}) {
        for (const auto &path : bed.sim().stats().match(pattern)) {
            pins.counters.emplace_back(
                path, bed.sim().stats().counterValue(path));
        }
    }
    for (const auto &t : taps)
        pins.captureDigests.push_back(fnv1a(t->bytes()));
    return pins;
}

/**
 * Observable state of one run of a parallel-engine scenario:
 * partitioned at threads >= 1 worker threads, or unpartitioned (the
 * engine's one partition) at threads == 0. It is read twice: where
 * the harness returned, at its FlowRun's stop tick, and after a
 * closing run to a fixed tick. Both points are the same in every run
 * mode, so a serial and a partitioned run must leave the same
 * captures, stats (less the engine's own parallel.* diagnostics) and
 * application results there. Across thread counts of one
 * partitioning the engine's diagnostics match too.
 */
struct ParallelArtifacts
{
    /** The stats JSON, after the closing fixed-tick run. */
    std::string statsJson;
    /** Every link direction's pcap image, concatenated in a fixed
     *  (edge, side) order, after the closing run. */
    std::vector<std::uint8_t> pcap;
    /**
     * Where the harness's last run call returned, before the closing
     * run: its FlowRun's stop tick, the same in every run mode.
     */
    sim::Tick endTick = 0;
    /** The stats JSON and events executed where it returned. */
    std::string returnedStatsJson;
    std::uint64_t returnedExecuted = 0;
    std::uint64_t executed = 0;
    /** Engine partitions, and the mail they exchanged. */
    std::size_t partitions = 0;
    std::uint64_t mailboxPosts = 0;
    bool completed = false;
    std::uint64_t faultEvents = 0;
    /** The link pins, read where the harness's last run returned. */
    LinkPins pins;
    /** What the application itself reports. */
    std::vector<double> app;
};

/** Partition @p bed across @p threads workers (0: stay unpartitioned). */
void
partition(apps::Testbed &bed, int threads)
{
    if (threads > 0)
        bed.enableParallel(threads);
}

/**
 * Note where the harness returned, run to @p stop (past every
 * scenario's own end), then read what both run modes must agree on.
 */
void
finishAt(apps::Testbed &bed, sim::Tick stop,
         const std::vector<std::unique_ptr<net::PcapWriter>> &taps,
         ParallelArtifacts &out)
{
    out.endTick = bed.sim().now();
    out.returnedStatsJson = bed.sim().stats().jsonDump();
    out.returnedExecuted = bed.engine()->executed();
    out.pins = collectLinkPins(bed.sim().stats(), taps);
    out.partitions = bed.engine()->numPartitions();
    out.mailboxPosts =
        bed.sim().stats().counterValue("parallel.mailboxPosts");
    EXPECT_LT(bed.sim().now(), stop);
    bed.sim().runUntil(stop);
    out.statsJson = bed.sim().stats().jsonDump();
    out.executed = bed.engine()->executed();
    for (const auto &t : taps) {
        out.pcap.insert(out.pcap.end(), t->bytes().begin(),
                        t->bytes().end());
    }
    for (const auto &path : bed.sim().stats().match("*.side?.fault*"))
        out.faultEvents += bed.sim().stats().counterValue(path);
}

/**
 * The oracle: a partitioned run at 1 and at 4 threads replays the
 * serial run of the same scenario.
 */
template <typename Run>
void
expectReplaysSerial(Run run)
{
    const ParallelArtifacts serial = run(0);
    ASSERT_TRUE(serial.completed);
    EXPECT_GT(serial.statsJson.size(), 1000u);
    EXPECT_EQ(serial.partitions, 1u);
    for (const int threads : {1, 4}) {
        SCOPED_TRACE(threads);
        const ParallelArtifacts part = run(threads);
        ASSERT_TRUE(part.completed);
        // A partitioned run replays serial only if something crossed
        // a partition boundary.
        EXPECT_GT(part.partitions, 1u);
        EXPECT_GT(part.mailboxPosts, 0u);
        // Where the harness returned...
        EXPECT_EQ(part.endTick, serial.endTick);
        EXPECT_EQ(withoutEngineStats(part.returnedStatsJson),
                  withoutEngineStats(serial.returnedStatsJson));
        EXPECT_EQ(part.returnedExecuted, serial.returnedExecuted);
        EXPECT_EQ(part.pins.counters, serial.pins.counters);
        EXPECT_EQ(part.pins.captureDigests, serial.pins.captureDigests);
        // ...and at the fixed tick past it.
        EXPECT_EQ(withoutEngineStats(part.statsJson),
                  withoutEngineStats(serial.statsJson));
        EXPECT_EQ(part.pcap, serial.pcap);
        EXPECT_EQ(part.app, serial.app);
        EXPECT_EQ(part.executed, serial.executed);
        EXPECT_EQ(part.faultEvents, serial.faultEvents);
    }
}

/** All-pairs ttcp over a @p hosts-host dual-star. */
ParallelArtifacts
runParallelTtcpPairs(int threads, std::uint64_t seed,
                     std::size_t hosts = 4)
{
    apps::SocketsTestbed bed(hosts, apps::SocketsFabric::GigabitEthernet,
                             seed, host::HostCostModel{},
                             apps::FabricTopology::DualStar);
    partition(bed, threads);
    const auto taps = tapAllEdges(bed.fabric());
    const auto pairs = apps::allPairs(hosts);
    const auto r = apps::runSocketsTtcpPairs(bed, pairs, 32 * 1024);
    ParallelArtifacts out;
    out.completed = r.completed && r.pairsCompleted == pairs.size();
    out.app = {r.aggMbPerSec, static_cast<double>(r.elapsedTicks)};
    finishAt(bed, sim::oneSec, taps, out);
    return out;
}

/** The lossy-wire transfer of runLossyTransfer, on a dual-star. */
ParallelArtifacts
runParallelLossy(int threads, std::uint64_t seed)
{
    apps::SocketsTestbed bed(2, apps::SocketsFabric::GigabitEthernet,
                             seed, host::HostCostModel{},
                             apps::FabricTopology::DualStar);
    partition(bed, threads);
    for (net::NodeId node = 0; node < 2; ++node) {
        auto &faults = bed.fabric().linkFor(node).faultConfig();
        faults.dropProb = 0.02;
        faults.dupProb = 0.01;
        faults.corruptProb = 0.01;
        faults.reorderProb = 0.05;
    }
    const auto taps = tapAllEdges(bed.fabric());
    const auto r = apps::runSocketsTtcp(bed, 128 * 1024);
    ParallelArtifacts out;
    out.completed = r.completed;
    out.app = {r.mbPerSec, r.txCpuUtil, r.rxCpuUtil, r.elapsedMs};
    finishAt(bed, 2 * sim::oneSec, taps, out);
    return out;
}

/** A QPIP ttcp transfer, host 0 -> host 1, on a 2-host dual-star. */
ParallelArtifacts
runParallelQpipTtcp(int threads, std::uint64_t seed)
{
    apps::QpipTestbed bed(2, apps::qpipNativeMtu, seed,
                          nic::QpipNicParams{}, host::HostCostModel{},
                          apps::IpFamily::V6,
                          apps::FabricTopology::DualStar);
    partition(bed, threads);
    const auto taps = tapAllEdges(bed.fabric());
    const auto r = apps::runQpipTtcp(bed, 512 * 1024);
    ParallelArtifacts out;
    out.completed = r.completed;
    out.app = {r.mbPerSec, r.txCpuUtil, r.rxCpuUtil, r.elapsedMs};
    finishAt(bed, sim::oneSec, taps, out);
    return out;
}

/**
 * NBD write+read against a 2-host dual-star, every edge tapped. The
 * client's source ports come from its own stack, so every run of the
 * scenario in one process sends the same headers. Each phase starts
 * its requests and its window from its connect callback; the read
 * phase connects from a fixed tick, where both run modes stand.
 */
ParallelArtifacts
runParallelNbd(int threads, std::uint64_t seed)
{
    apps::SocketsTestbed bed(2, apps::SocketsFabric::GigabitEthernet,
                             seed, host::HostCostModel{},
                             apps::FabricTopology::DualStar);
    // The store is server-side state: it must live (and burn disk
    // model time) on the server host's partition.
    apps::ServerStore store(bed.sim(), "store", 1 << 20);
    partition(bed, threads);
    bed.engine()->assignByPrefix("store", bed.partitionOf(1));
    apps::NbdSocketServer server(bed.host(1).stack(), store,
                                 apps::NbdServerConfig{});
    const auto taps = tapAllEdges(bed.fabric());
    const auto w =
        apps::runNbdSocketsSequential(bed, 0, 1, true, 256 * 1024);
    bed.sim().runUntil(sim::oneSec);
    const auto r =
        apps::runNbdSocketsSequential(bed, 0, 1, false, 256 * 1024);
    ParallelArtifacts out;
    out.completed = w.completed && r.completed && r.dataOk;
    for (const auto &phase : {w, r}) {
        out.app.insert(out.app.end(), {phase.mbPerSec, phase.clientCpuUtil,
                                       phase.mbPerCpuSec});
    }
    finishAt(bed, 2 * sim::oneSec, taps, out);
    return out;
}

/**
 * Bytes per op of runParallelRdmaSrq. At namespace scope: GCC 12 warns
 * that a local constexpr read only inside a generic lambda is "set but
 * not used".
 */
constexpr std::size_t srqOpBytes = 2048;

/**
 * RDMA Write/Read/Send fan-in over an SRQ on a partitioned 4-host
 * dual-star: three clients drive one-sided and two-sided traffic at
 * one server whose receives all come from a shared receive queue.
 */
ParallelArtifacts
runParallelRdmaSrq(int threads, std::uint64_t seed)
{
    apps::QpipTestbed bed(4, apps::qpipNativeMtu, seed,
                          nic::QpipNicParams{}, host::HostCostModel{},
                          apps::IpFamily::V6,
                          apps::FabricTopology::DualStar);
    partition(bed, threads);
    const auto taps = tapAllEdges(bed.fabric());

    constexpr std::size_t clients[] = {0, 2, 3};
    constexpr int opsPerClient = 9; // op%3: 0=Write 1=Read 2=Send

    auto scq = bed.provider(1).createCq();
    auto srq = bed.provider(1).createSrq();
    std::vector<std::uint8_t> rbuf(1 << 16);
    auto rmr = bed.provider(1).registerMemory(rbuf,
                                              nic::accessRemoteRw);
    for (std::size_t i = 0; i < 16; ++i)
        srq->postRecv(i, *rmr, 32768 + i * 2048, 2048);

    verbs::QpAttrs attrs;
    attrs.rdmaWindowBytes = 1 << 14;
    verbs::QpAttrs server_attrs = attrs;
    server_attrs.srq = srq;
    verbs::Acceptor acc(bed.provider(1), 700, scq, scq);
    std::vector<std::shared_ptr<verbs::QueuePair>> serverQps;
    for (std::size_t i = 0; i < std::size(clients); ++i) {
        acc.acceptOne(
            [&](std::shared_ptr<verbs::QueuePair> q) {
                serverQps.push_back(std::move(q));
            },
            server_attrs);
    }

    struct Client
    {
        std::shared_ptr<verbs::CompletionQueue> cq;
        std::vector<std::uint8_t> buf;
        std::shared_ptr<verbs::MemoryRegion> mr;
        std::shared_ptr<verbs::QueuePair> qp;
        int done = 0;
        bool connected = false;
    };
    std::vector<Client> cs(std::size(clients));
    for (std::size_t i = 0; i < std::size(clients); ++i) {
        auto &c = cs[i];
        c.cq = bed.provider(clients[i]).createCq();
        c.buf.assign(1 << 15, static_cast<std::uint8_t>(i + 1));
        c.mr = bed.provider(clients[i]).registerMemory(c.buf);
        c.qp = bed.provider(clients[i])
                   .createQp(nic::QpType::ReliableTcp, c.cq, c.cq,
                             attrs);
        c.qp->connect(bed.addr(1, 700),
                      [&c](bool ok) { c.connected = ok; });
    }
    // The traffic starts from the harness, so the connect phase ends
    // at a fixed tick, where both run modes stand.
    bed.sim().runUntil(sim::oneSec);
    EXPECT_EQ(serverQps.size(), std::size(clients));
    EXPECT_TRUE(std::all_of(cs.begin(), cs.end(),
                            [](const Client &c) { return c.connected; }));

    // Flow 0 is the server's receives, flow 1+i client i's ops.
    const std::size_t wantReceives =
        std::size(clients) * (opsPerClient / 3);
    const apps::FlowRun run(bed, 1 + std::size(clients));
    std::size_t serverReceives = 0;
    apps::waitLoop(*scq, [&](verbs::Completion c) {
        if (!c.isSend && ++serverReceives == wantReceives)
            run.done(0, bed.host(1).os().curTick());
    });

    for (std::size_t i = 0; i < std::size(clients); ++i) {
        auto &c = cs[i];
        host::Host &h = bed.host(clients[i]);
        auto postNext = [&bed, &c, &rmr, &run, &h,
                         i](auto &&self) -> void {
            if (c.done >= opsPerClient) {
                run.done(1 + i, h.os().curTick());
                return;
            }
            const auto roff =
                static_cast<std::uint64_t>(i * 8192 +
                                           (c.done % 4) * 2048);
            switch (c.done % 3) {
              case 0:
                c.qp->postWrite(c.done, *c.mr, 0, srqOpBytes,
                                rmr->key(), roff);
                break;
              case 1:
                c.qp->postRead(c.done, *c.mr, 4096, srqOpBytes,
                               rmr->key(), roff);
                break;
              default:
                c.qp->postSend(c.done, *c.mr, 8192, srqOpBytes);
                break;
            }
            // Re-arm before this op completes; Wait() holds one
            // waiter at a time, so arm from the completion callback.
            c.cq->wait([&c, self](verbs::Completion) {
                ++c.done;
                self(self);
            });
        };
        postNext(postNext);
    }

    ParallelArtifacts out;
    out.completed = run.run();
    out.app = {static_cast<double>(serverReceives)};
    finishAt(bed, 2 * sim::oneSec, taps, out);
    return out;
}

/**
 * One shift permutation of the all-to-all (host i -> host i+1 mod n)
 * over a partitioned 128-host k=8 fat-tree: the datacenter-scale
 * workload of the per-edge-horizon engine, with every edge switch
 * (and its hosts) and every spine in its own partition. Kept to one
 * shift and small transfers so the 1-vs-N comparison stays CI- and
 * TSan-budgeted.
 */
ParallelArtifacts
runParallelFatTreeShift(int threads, std::uint64_t seed,
                        std::size_t bytes_per_pair = 8 * 1024)
{
    apps::SocketsTestbed bed(128, apps::SocketsFabric::GigabitEthernet,
                             seed, host::HostCostModel{},
                             apps::FabricTopology::FatTreeK8);
    partition(bed, threads);
    const auto taps = tapAllEdges(bed.fabric());
    const auto r = apps::runSocketsTtcpPairs(
        bed, apps::uniformShiftPairs(128, 1), bytes_per_pair);
    ParallelArtifacts out;
    out.completed = r.completed && r.pairsCompleted == 128;
    out.app = {r.aggMbPerSec, static_cast<double>(r.elapsedTicks)};
    finishAt(bed, sim::oneSec, taps, out);
    return out;
}

/**
 * The RUD fan-in of runParallelRudFanIn with the whole batching path
 * switched on: chained posts (postSendList / SRQ postRecvList), the
 * doorbell coalescing window and completion-event moderation. Batch
 * doorbell records, fold decisions and moderated notify timing must
 * all be partition-invariant.
 */
ParallelArtifacts
runParallelBatchedFanIn(int threads, std::uint64_t seed)
{
    nic::QpipNicParams params;
    params.doorbellCoalesceCycles = 266;
    params.cqModerationCount = 4;
    params.cqModerationCycles = 1330;
    apps::QpipTestbed bed(4, apps::qpipNativeMtu, seed, params,
                          host::HostCostModel{}, apps::IpFamily::V6,
                          apps::FabricTopology::DualStar);
    partition(bed, threads);
    const auto taps = tapAllEdges(bed.fabric());

    constexpr std::size_t clients[] = {0, 2, 3};
    constexpr int msgsPerClient = 9;
    constexpr int chain = 3;
    constexpr std::size_t msgBytes = 1536;

    auto scq = bed.provider(1).createCq();
    auto srq = bed.provider(1).createSrq();
    std::vector<std::uint8_t> rbuf(1 << 16);
    auto rmr = bed.provider(1).registerMemory(rbuf);
    // Fewer posted WRs than in-flight messages, as in the singleton
    // fan-in: RNR holds and chained replenishment interleave.
    for (std::size_t i = 0; i < 8; ++i)
        srq->postRecv(i, *rmr, i * 2048, 2048);

    verbs::QpAttrs server_attrs;
    server_attrs.srq = srq;
    auto qs = bed.provider(1).createQp(nic::QpType::ReliableDatagram,
                                       scq, scq, server_attrs);
    qs->bind(800);

    // Flow 0 is the server's receives, flow 1+i client i's acks.
    const std::size_t wantReceives =
        std::size(clients) * msgsPerClient;
    const apps::FlowRun run(bed, 1 + std::size(clients));
    std::size_t serverReceives = 0;
    std::size_t pendingRepost = 0;
    apps::waitLoop(*scq, [&](verbs::Completion c) {
        if (c.isSend)
            return;
        if (++serverReceives == wantReceives)
            run.done(0, bed.host(1).os().curTick());
        ++pendingRepost;
        if (pendingRepost < chain)
            return;
        // Chained replenish: one SRQ batch doorbell per chain.
        std::vector<verbs::RecvWrSpec> specs;
        for (std::size_t i = 0; i < pendingRepost; ++i) {
            const std::size_t slot = (serverReceives - pendingRepost +
                                      i) % 8;
            specs.push_back(
                {100 + serverReceives + i, rmr.get(), slot * 2048,
                 2048});
        }
        srq->postRecvList(specs);
        pendingRepost = 0;
    });

    struct Client
    {
        std::shared_ptr<verbs::CompletionQueue> cq;
        std::vector<std::uint8_t> buf;
        std::shared_ptr<verbs::MemoryRegion> mr;
        std::shared_ptr<verbs::QueuePair> qp;
        std::size_t acked = 0;
    };
    std::vector<Client> cs(std::size(clients));
    for (std::size_t i = 0; i < std::size(clients); ++i) {
        auto &c = cs[i];
        c.cq = bed.provider(clients[i]).createCq();
        c.buf.assign(1 << 15, static_cast<std::uint8_t>(i + 1));
        c.mr = bed.provider(clients[i]).registerMemory(c.buf);
        c.qp = bed.provider(clients[i])
                   .createQp(nic::QpType::ReliableDatagram, c.cq,
                             c.cq);
        c.qp->bind(static_cast<std::uint16_t>(2000 + clients[i]));
        host::Host &h = bed.host(clients[i]);
        apps::waitLoop(*c.cq, [&c, &run, &h, i](verbs::Completion comp) {
            if (comp.isSend && ++c.acked == msgsPerClient)
                run.done(1 + i, h.os().curTick());
        });
        // Chained bursts: 9 messages as three 3-WR batch doorbells.
        for (int m = 0; m < msgsPerClient; m += chain) {
            std::vector<verbs::SendWrSpec> specs;
            for (int k = 0; k < chain; ++k) {
                const int wr = m + k;
                specs.push_back({static_cast<std::uint64_t>(wr),
                                 c.mr.get(), wr * msgBytes, msgBytes,
                                 bed.addr(1, 800)});
            }
            c.qp->postSendList(specs);
        }
    }

    ParallelArtifacts out;
    out.completed = run.run();
    out.app = {static_cast<double>(serverReceives)};
    for (const Client &c : cs)
        out.app.push_back(static_cast<double>(c.acked));
    finishAt(bed, 2 * sim::oneSec, taps, out);
    return out;
}

/**
 * Reliable-datagram fan-in on a partitioned 4-host dual-star: three
 * clients each fire a burst of RUD sends at one server QP whose
 * receives come from a shared receive queue. The per-peer
 * acknowledgement/retransmit machinery and the RNR hold/release path
 * all run across the partition boundary.
 */
ParallelArtifacts
runParallelRudFanIn(int threads, std::uint64_t seed)
{
    apps::QpipTestbed bed(4, apps::qpipNativeMtu, seed,
                          nic::QpipNicParams{}, host::HostCostModel{},
                          apps::IpFamily::V6,
                          apps::FabricTopology::DualStar);
    partition(bed, threads);
    const auto taps = tapAllEdges(bed.fabric());

    constexpr std::size_t clients[] = {0, 2, 3};
    constexpr int msgsPerClient = 9;
    constexpr std::size_t msgBytes = 1536;

    auto scq = bed.provider(1).createCq();
    auto srq = bed.provider(1).createSrq();
    std::vector<std::uint8_t> rbuf(1 << 16);
    auto rmr = bed.provider(1).registerMemory(rbuf);
    // Fewer posted WRs than in-flight messages: the server dips into
    // RNR holds mid-run and replenishment order must stay invariant.
    for (std::size_t i = 0; i < 8; ++i)
        srq->postRecv(i, *rmr, i * 2048, 2048);

    verbs::QpAttrs server_attrs;
    server_attrs.srq = srq;
    auto qs = bed.provider(1).createQp(nic::QpType::ReliableDatagram,
                                       scq, scq, server_attrs);
    qs->bind(800);

    // Flow 0 is the server's receives, flow 1+i client i's acks.
    const std::size_t wantReceives =
        std::size(clients) * msgsPerClient;
    const apps::FlowRun run(bed, 1 + std::size(clients));
    std::size_t serverReceives = 0;
    apps::waitLoop(*scq, [&](verbs::Completion c) {
        if (c.isSend)
            return;
        if (++serverReceives == wantReceives)
            run.done(0, bed.host(1).os().curTick());
        // Hand the consumed slot straight back to the pool.
        srq->postRecv(100 + serverReceives, *rmr,
                      (serverReceives % 8) * 2048, 2048);
    });

    struct Client
    {
        std::shared_ptr<verbs::CompletionQueue> cq;
        std::vector<std::uint8_t> buf;
        std::shared_ptr<verbs::MemoryRegion> mr;
        std::shared_ptr<verbs::QueuePair> qp;
        std::size_t acked = 0;
    };
    std::vector<Client> cs(std::size(clients));
    for (std::size_t i = 0; i < std::size(clients); ++i) {
        auto &c = cs[i];
        c.cq = bed.provider(clients[i]).createCq();
        c.buf.assign(1 << 15, static_cast<std::uint8_t>(i + 1));
        c.mr = bed.provider(clients[i]).registerMemory(c.buf);
        c.qp = bed.provider(clients[i])
                   .createQp(nic::QpType::ReliableDatagram, c.cq,
                             c.cq);
        c.qp->bind(static_cast<std::uint16_t>(2000 + clients[i]));
        host::Host &h = bed.host(clients[i]);
        apps::waitLoop(*c.cq, [&c, &run, &h, i](verbs::Completion comp) {
            if (comp.isSend && ++c.acked == msgsPerClient)
                run.done(1 + i, h.os().curTick());
        });
        for (int m = 0; m < msgsPerClient; ++m) {
            c.qp->postSend(m, *c.mr, m * msgBytes, msgBytes,
                           bed.addr(1, 800));
        }
    }

    ParallelArtifacts out;
    out.completed = run.run();
    out.app = {static_cast<double>(serverReceives)};
    for (const Client &c : cs)
        out.app.push_back(static_cast<double>(c.acked));
    finishAt(bed, 2 * sim::oneSec, taps, out);
    return out;
}

} // namespace

TEST(Determinism, QpipPingPongReplaysIdentically)
{
    const auto a = runQpipPingPong(7);
    const auto b = runQpipPingPong(7);
    ASSERT_TRUE(a.completed);
    ASSERT_TRUE(b.completed);
    EXPECT_EQ(a.endTick, b.endTick);
    EXPECT_EQ(a.statsJson, b.statsJson);
    EXPECT_EQ(a.traceJson, b.traceJson);
    // Sanity: the runs actually produced substantial state.
    EXPECT_GT(a.statsJson.size(), 1000u);
    EXPECT_GT(a.traceJson.size(), 1000u);
}

TEST(Determinism, DifferentSeedsDiverge)
{
    // On a lossy fabric the fault dice pick which packets die, so a
    // different seed must produce a different history; identical
    // output would mean the seed is ignored somewhere.
    const auto a = runLossyTransfer(1234);
    const auto b = runLossyTransfer(4321);
    ASSERT_TRUE(a.completed);
    ASSERT_TRUE(b.completed);
    EXPECT_NE(a.traceJson, b.traceJson);
    EXPECT_NE(a.statsJson, b.statsJson);
}

TEST(Determinism, LossyFabricTransferReplaysIdentically)
{
    const auto a = runLossyTransfer(1234);
    const auto b = runLossyTransfer(1234);
    ASSERT_TRUE(a.completed);
    ASSERT_TRUE(b.completed);
    EXPECT_EQ(a.endTick, b.endTick);
    EXPECT_EQ(a.statsJson, b.statsJson);
    EXPECT_EQ(a.traceJson, b.traceJson);
    // The fault injector really fired, or this test proves nothing.
    EXPECT_GT(a.faultEvents, 0u);
}

TEST(Determinism, FaultDiceIgnoreUnrelatedDraws)
{
    // Every object draws from its own stream: connections opened
    // elsewhere in the fabric shift neither a lossy link's fault
    // decisions nor the measured hosts' sequence numbers.
    const LinkPins alone = runStarTransfer(false);
    const LinkPins after = runStarTransfer(true);
    EXPECT_EQ(alone.counters, after.counters);
    EXPECT_EQ(alone.captureDigests, after.captureDigests);
    // The dice really fired on the measured spokes.
    std::uint64_t faults = 0;
    for (const auto &[path, value] : alone.counters)
        faults += value;
    EXPECT_GT(faults, 0u);
    // Four fault counters per direction of each of the two spokes.
    EXPECT_EQ(alone.counters.size(), 16u);
}

// --- parallel engine: N threads == 1 thread, bit for bit -----------

TEST(ParallelDeterminism, TtcpPairsThreadCountInvariant)
{
    const auto one = runParallelTtcpPairs(1, 11);
    const auto four = runParallelTtcpPairs(4, 11);
    ASSERT_TRUE(one.completed);
    ASSERT_TRUE(four.completed);
    EXPECT_EQ(one.endTick, four.endTick);
    EXPECT_EQ(one.executed, four.executed);
    EXPECT_EQ(one.statsJson, four.statsJson);
    EXPECT_EQ(one.pcap, four.pcap);
    // Sanity: real traffic crossed the tapped wires.
    EXPECT_GT(one.statsJson.size(), 1000u);
    EXPECT_GT(one.pcap.size(), 10000u);
    // And the 4-thread run itself replays bit-identically.
    const auto again = runParallelTtcpPairs(4, 11);
    EXPECT_EQ(four.statsJson, again.statsJson);
    EXPECT_EQ(four.pcap, again.pcap);
}

TEST(ParallelDeterminism, LossyTransferThreadCountInvariant)
{
    const auto one = runParallelLossy(1, 1234);
    const auto four = runParallelLossy(4, 1234);
    ASSERT_TRUE(one.completed);
    ASSERT_TRUE(four.completed);
    EXPECT_EQ(one.endTick, four.endTick);
    EXPECT_EQ(one.executed, four.executed);
    EXPECT_EQ(one.statsJson, four.statsJson);
    EXPECT_EQ(one.pcap, four.pcap);
    EXPECT_EQ(one.faultEvents, four.faultEvents);
    // Same fault streams on both sides of the comparison: the faults
    // really fired, and identically so.
    EXPECT_GT(one.faultEvents, 0u);
}

TEST(ParallelDeterminism, NbdThreadCountInvariant)
{
    const auto one = runParallelNbd(1, 5);
    const auto four = runParallelNbd(4, 5);
    ASSERT_TRUE(one.completed);
    ASSERT_TRUE(four.completed);
    EXPECT_EQ(one.endTick, four.endTick);
    EXPECT_EQ(one.executed, four.executed);
    EXPECT_EQ(one.statsJson, four.statsJson);
    EXPECT_EQ(one.pcap, four.pcap);
    EXPECT_FALSE(one.pcap.empty());
    EXPECT_GT(one.statsJson.size(), 1000u);
}

TEST(ParallelDeterminism, RdmaSrqThreadCountInvariant)
{
    const auto one = runParallelRdmaSrq(1, 21);
    const auto four = runParallelRdmaSrq(4, 21);
    ASSERT_TRUE(one.completed);
    ASSERT_TRUE(four.completed);
    EXPECT_EQ(one.endTick, four.endTick);
    EXPECT_EQ(one.executed, four.executed);
    EXPECT_EQ(one.statsJson, four.statsJson);
    EXPECT_EQ(one.pcap, four.pcap);
    EXPECT_GT(one.statsJson.size(), 1000u);
    EXPECT_GT(one.pcap.size(), 10000u);
    // And the 4-thread run itself replays bit-identically.
    const auto again = runParallelRdmaSrq(4, 21);
    EXPECT_EQ(four.statsJson, again.statsJson);
    EXPECT_EQ(four.pcap, again.pcap);
}

TEST(ParallelDeterminism, RudFanInThreadCountInvariant)
{
    const auto one = runParallelRudFanIn(1, 29);
    const auto four = runParallelRudFanIn(4, 29);
    ASSERT_TRUE(one.completed);
    ASSERT_TRUE(four.completed);
    EXPECT_EQ(one.endTick, four.endTick);
    EXPECT_EQ(one.executed, four.executed);
    EXPECT_EQ(one.statsJson, four.statsJson);
    EXPECT_EQ(one.pcap, four.pcap);
    EXPECT_GT(one.statsJson.size(), 1000u);
    EXPECT_GT(one.pcap.size(), 10000u);
    // And the 4-thread run itself replays bit-identically.
    const auto again = runParallelRudFanIn(4, 29);
    EXPECT_EQ(four.statsJson, again.statsJson);
    EXPECT_EQ(four.pcap, again.pcap);
}

TEST(ParallelDeterminism, FatTree128ThreadCountInvariant)
{
    const auto one = runParallelFatTreeShift(1, 77);
    const auto four = runParallelFatTreeShift(4, 77);
    ASSERT_TRUE(one.completed);
    ASSERT_TRUE(four.completed);
    EXPECT_EQ(one.endTick, four.endTick);
    EXPECT_EQ(one.executed, four.executed);
    EXPECT_EQ(one.statsJson, four.statsJson);
    EXPECT_EQ(one.pcap, four.pcap);
    // Sanity: 128 hosts really pushed traffic through the tree.
    EXPECT_GT(one.statsJson.size(), 10000u);
    EXPECT_GT(one.pcap.size(), 100000u);
}

TEST(ParallelDeterminism, BatchedPostsThreadCountInvariant)
{
    const auto one = runParallelBatchedFanIn(1, 31);
    const auto four = runParallelBatchedFanIn(4, 31);
    ASSERT_TRUE(one.completed);
    ASSERT_TRUE(four.completed);
    EXPECT_EQ(one.endTick, four.endTick);
    EXPECT_EQ(one.executed, four.executed);
    EXPECT_EQ(one.statsJson, four.statsJson);
    EXPECT_EQ(one.pcap, four.pcap);
    EXPECT_GT(one.statsJson.size(), 1000u);
    EXPECT_GT(one.pcap.size(), 10000u);
    // And the 4-thread run itself replays bit-identically.
    const auto again = runParallelBatchedFanIn(4, 31);
    EXPECT_EQ(four.statsJson, again.statsJson);
    EXPECT_EQ(four.pcap, again.pcap);
}

// --- the serial oracle: partitioned == serial ---------------------
//
// Every event is keyed by the object (or link direction) that
// scheduled it, so any partitioning replays the serial schedule. Each
// scenario above also runs unpartitioned; where the harness returned
// (its FlowRun's stop tick) and again at a fixed tick past it, the
// serial run and the 1- and 4-thread partitioned runs must leave
// identical captures, stats (less parallel.*), event counts and
// application results.

TEST(ParallelDeterminism, TtcpPairsReplaysSerial)
{
    expectReplaysSerial([](int t) { return runParallelTtcpPairs(t, 11); });
}

TEST(ParallelDeterminism, TtcpPairsDualStar8ReplaysSerial)
{
    // Each pair starts from its own connect callback and times itself,
    // so the reported elapsed time does not depend on where a run call
    // returned.
    expectReplaysSerial(
        [](int t) { return runParallelTtcpPairs(t, 11, 8); });
}

TEST(ParallelDeterminism, LossyTransferReplaysSerial)
{
    expectReplaysSerial([](int t) { return runParallelLossy(t, 1234); });
}

TEST(ParallelDeterminism, NbdReplaysSerial)
{
    expectReplaysSerial([](int t) { return runParallelNbd(t, 5); });
}

TEST(ParallelDeterminism, QpipTtcpReplaysSerial)
{
    expectReplaysSerial([](int t) { return runParallelQpipTtcp(t, 3); });
}

TEST(ParallelDeterminism, RdmaSrqReplaysSerial)
{
    expectReplaysSerial([](int t) { return runParallelRdmaSrq(t, 21); });
}

TEST(ParallelDeterminism, RudFanInReplaysSerial)
{
    expectReplaysSerial([](int t) { return runParallelRudFanIn(t, 29); });
}

/**
 * At bench_simspeed's fat-tree size, 64 KB per pair: a harness that
 * returned at a barrier read 97,760 events partitioned against 97,728
 * unpartitioned, where now every run mode stops at its FlowRun's stop
 * tick.
 */
TEST(ParallelDeterminism, FatTree128ReplaysSerial)
{
    expectReplaysSerial(
        [](int t) { return runParallelFatTreeShift(t, 77, 64 * 1024); });
}

TEST(ParallelDeterminism, BatchedPostsReplaysSerial)
{
    expectReplaysSerial(
        [](int t) { return runParallelBatchedFanIn(t, 31); });
}

// --- link pins: absolute values of the lossy transfers -------------
//
// The replay tests above compare runs only to each other, so a
// reordered fault stream or a shifted delivery would still pass them.
// These pin the lossy transfers' link-layer outcome absolutely — the
// final tick, every transmit, drop and fault counter of each link
// direction, and a digest of each direction's capture — as the link
// model produced them under drop+dup+corrupt+reorder, each direction
// rolling its own fault stream and keeping its own counters.

TEST(Determinism, LossyTransferMatchesLinkPins)
{
    const auto run = runLossyTransfer(1234);
    ASSERT_TRUE(run.completed);
    EXPECT_EQ(run.endTick, 244056403294ull);
    const std::vector<CounterPin> counters = {
        {"fabric.link0.side0.packetsSent", 96},
        {"fabric.link0.side1.packetsSent", 68},
        {"fabric.link1.side0.packetsSent", 69},
        {"fabric.link1.side1.packetsSent", 95},
        {"fabric.link0.side0.bytesSent", 142576},
        {"fabric.link0.side1.bytesSent", 6128},
        {"fabric.link1.side0.bytesSent", 6218},
        {"fabric.link1.side1.bytesSent", 141058},
        {"fabric.link0.side0.queueDrops", 0},
        {"fabric.link0.side1.queueDrops", 0},
        {"fabric.link1.side0.queueDrops", 0},
        {"fabric.link1.side1.queueDrops", 0},
        {"fabric.link0.side0.oversizeDrops", 0},
        {"fabric.link0.side1.oversizeDrops", 0},
        {"fabric.link1.side0.oversizeDrops", 0},
        {"fabric.link1.side1.oversizeDrops", 0},
        {"fabric.link0.side0.faultCorruptions", 0},
        {"fabric.link0.side0.faultDrops", 1},
        {"fabric.link0.side0.faultDups", 0},
        {"fabric.link0.side0.faultReorders", 4},
        {"fabric.link0.side1.faultCorruptions", 0},
        {"fabric.link0.side1.faultDrops", 3},
        {"fabric.link0.side1.faultDups", 0},
        {"fabric.link0.side1.faultReorders", 4},
        {"fabric.link1.side0.faultCorruptions", 2},
        {"fabric.link1.side0.faultDrops", 2},
        {"fabric.link1.side0.faultDups", 1},
        {"fabric.link1.side0.faultReorders", 2},
        {"fabric.link1.side1.faultCorruptions", 1},
        {"fabric.link1.side1.faultDrops", 0},
        {"fabric.link1.side1.faultDups", 0},
        {"fabric.link1.side1.faultReorders", 3},
    };
    EXPECT_EQ(run.pins.counters, counters);
    const std::vector<std::uint64_t> digests = {
        0x3bf7c35ef7abdecbull,
        0xf3a1739174346ad6ull,
        0x57502f510f05c9fdull,
        0x5e1cccfbd110fde8ull,
    };
    EXPECT_EQ(run.pins.captureDigests, digests);
}

TEST(ParallelDeterminism, LossyTransferMatchesLinkPins)
{
    const std::vector<CounterPin> counters = {
        {"fabric.link0.side0.packetsSent", 96},
        {"fabric.link0.side1.packetsSent", 70},
        {"fabric.link1.side0.packetsSent", 71},
        {"fabric.link1.side1.packetsSent", 95},
        {"fabric.trunk.side0.packetsSent", 95},
        {"fabric.trunk.side1.packetsSent", 70},
        {"fabric.link0.side0.bytesSent", 142576},
        {"fabric.link0.side1.bytesSent", 6308},
        {"fabric.link1.side0.bytesSent", 6398},
        {"fabric.link1.side1.bytesSent", 141058},
        {"fabric.trunk.side0.bytesSent", 141058},
        {"fabric.trunk.side1.bytesSent", 6308},
        {"fabric.link0.side0.queueDrops", 0},
        {"fabric.link0.side1.queueDrops", 0},
        {"fabric.link1.side0.queueDrops", 0},
        {"fabric.link1.side1.queueDrops", 0},
        {"fabric.trunk.side0.queueDrops", 0},
        {"fabric.trunk.side1.queueDrops", 0},
        {"fabric.link0.side0.oversizeDrops", 0},
        {"fabric.link0.side1.oversizeDrops", 0},
        {"fabric.link1.side0.oversizeDrops", 0},
        {"fabric.link1.side1.oversizeDrops", 0},
        {"fabric.trunk.side0.oversizeDrops", 0},
        {"fabric.trunk.side1.oversizeDrops", 0},
        {"fabric.link0.side0.faultCorruptions", 0},
        {"fabric.link0.side0.faultDrops", 1},
        {"fabric.link0.side0.faultDups", 0},
        {"fabric.link0.side0.faultReorders", 4},
        {"fabric.link0.side1.faultCorruptions", 0},
        {"fabric.link0.side1.faultDrops", 3},
        {"fabric.link0.side1.faultDups", 0},
        {"fabric.link0.side1.faultReorders", 4},
        {"fabric.link1.side0.faultCorruptions", 2},
        {"fabric.link1.side0.faultDrops", 2},
        {"fabric.link1.side0.faultDups", 1},
        {"fabric.link1.side0.faultReorders", 2},
        {"fabric.link1.side1.faultCorruptions", 1},
        {"fabric.link1.side1.faultDrops", 0},
        {"fabric.link1.side1.faultDups", 0},
        {"fabric.link1.side1.faultReorders", 3},
        {"fabric.trunk.side0.faultCorruptions", 0},
        {"fabric.trunk.side0.faultDrops", 0},
        {"fabric.trunk.side0.faultDups", 0},
        {"fabric.trunk.side0.faultReorders", 0},
        {"fabric.trunk.side1.faultCorruptions", 0},
        {"fabric.trunk.side1.faultDrops", 0},
        {"fabric.trunk.side1.faultDups", 0},
        {"fabric.trunk.side1.faultReorders", 0},
    };
    const std::vector<std::uint64_t> digests = {
        0x40a167d19991c90bull,
        0xb99c100f29030c15ull,
        0xf0c3db5307bb68faull,
        0xdc3011950f5006c2ull,
        0x4273691c8a550f7dull,
        0x65f63c073cd13412ull,
    };
    // The harness stops at the same tick in every run mode.
    for (const int threads : {0, 1, 4}) {
        const auto run = runParallelLossy(threads, 1234);
        ASSERT_TRUE(run.completed) << threads << " threads";
        EXPECT_EQ(run.endTick, 244328247417ull) << threads << " threads";
        EXPECT_EQ(run.pins.counters, counters) << threads << " threads";
        EXPECT_EQ(run.pins.captureDigests, digests)
            << threads << " threads";
    }
}
