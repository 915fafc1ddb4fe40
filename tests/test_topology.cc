/**
 * @file
 * Multi-switch fabric tests: dual-star and 2-level fat-tree shapes,
 * all-pairs ttcp traffic across them (serial), parallel-engine
 * smoke runs over a partitioned testbed, the capture rule for
 * partitioned links, and what a partitioned testbed refuses.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "apps/testbed.hh"
#include "apps/ttcp.hh"
#include "net/pcap.hh"
#include "net/topology.hh"
#include "sim/logging.hh"
#include "sim/parallel_engine.hh"
#include "sim/sim_object.hh"
#include "sim/simulation.hh"

using namespace qpip;
using apps::FabricTopology;
using apps::SocketsFabric;

namespace {

/** Forwarded-packet count of switch @p name, 0 if unregistered. */
std::uint64_t
forwardedOf(sim::Simulation &sim, const std::string &name)
{
    const auto *c = sim.stats().counter(name + ".forwarded");
    return c != nullptr ? c->value() : 0;
}

} // namespace

TEST(Topology, DualStarShape)
{
    sim::Simulation simu(1);
    net::DualStarFabric fab(simu, "ds", net::gigabitEthernetLink(), 4);
    for (net::NodeId n = 0; n < 4; ++n)
        fab.addNode(n);
    EXPECT_EQ(fab.numSwitches(), 2u);
    // 4 spokes + 1 trunk.
    EXPECT_EQ(fab.edges().size(), 5u);
    // Every host has a spoke.
    for (net::NodeId n = 0; n < 4; ++n)
        EXPECT_NO_THROW(fab.linkFor(n));
    simu.eventQueue().clear();
}

TEST(Topology, FatTreeShape)
{
    sim::Simulation simu(1);
    net::FatTreeFabric fab(simu, "ft", net::gigabitEthernetLink(), 8,
                           2, 2);
    for (net::NodeId n = 0; n < 8; ++n)
        fab.addNode(n);
    EXPECT_EQ(fab.numEdgeSwitches(), 4u);
    EXPECT_EQ(fab.numSpineSwitches(), 2u);
    EXPECT_EQ(fab.numSwitches(), 6u);
    // 8 spokes + 4 edges x 2 spines uplinks.
    EXPECT_EQ(fab.edges().size(), 16u);
    simu.eventQueue().clear();
}

TEST(Topology, DualStarAllPairsTtcp)
{
    apps::SocketsTestbed bed(4, SocketsFabric::GigabitEthernet, 1,
                             host::HostCostModel{},
                             FabricTopology::DualStar);
    const auto pairs = apps::allPairs(4);
    ASSERT_EQ(pairs.size(), 12u);
    const auto r = apps::runSocketsTtcpPairs(bed, pairs, 32 * 1024);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.pairsCompleted, 12u);
    EXPECT_GT(r.aggMbPerSec, 0.0);
    // Cross-star pairs exist, so both switches and the trunk carry
    // traffic.
    EXPECT_GT(forwardedOf(bed.sim(), "fabric.switch0"), 0u);
    EXPECT_GT(forwardedOf(bed.sim(), "fabric.switch1"), 0u);
}

TEST(Topology, FatTreeAllPairsTtcp)
{
    apps::SocketsTestbed bed(8, SocketsFabric::GigabitEthernet, 1,
                             host::HostCostModel{},
                             FabricTopology::FatTree);
    const auto pairs = apps::allPairs(8);
    ASSERT_EQ(pairs.size(), 56u);
    const auto r = apps::runSocketsTtcpPairs(bed, pairs, 16 * 1024);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.pairsCompleted, 56u);
    // Every edge and spine switch forwards something under all-pairs.
    for (const auto name :
         {"fabric.edge0", "fabric.edge1", "fabric.edge2",
          "fabric.edge3", "fabric.spine0", "fabric.spine1"}) {
        EXPECT_GT(forwardedOf(bed.sim(), name), 0u) << name;
    }
}

namespace {

/**
 * The layout partitionFabric gives @p bed: @p partitions in all, one
 * per switch; each host in its leaf switch's partition, so neither
 * direction of its spoke has an outbox; and every direction between
 * two partitions with a mailbox from its sender's partition to its
 * receiver's, declaring its link's propagation delay plus
 * serialization floor as the lookahead.
 */
void
expectLeafGrouping(apps::Testbed &bed, std::size_t partitions)
{
    sim::ParallelEngine &eng = *bed.engine();
    net::Fabric &fab = bed.fabric();
    EXPECT_EQ(eng.numPartitions(), partitions);
    EXPECT_EQ(fab.numSwitches(), partitions);
    const auto part_of =
        [&](const net::Fabric::Attachment &a) -> sim::Partition * {
        return a.isSwitch ? eng.findPartition(fab.switchAt(a.index).name())
                          : &bed.partitionOf(a.index);
    };
    std::size_t spokes = 0;
    std::size_t crossings = 0;
    for (const net::Fabric::Edge &e : fab.edges()) {
        const net::LinkConfig &cfg = e.link->config();
        const sim::Tick expect =
            cfg.propDelay + e.link->serializationDelay(cfg.overheadBytes);
        EXPECT_GT(e.link->serializationDelay(cfg.overheadBytes), 0u);
        const bool spoke = !e.ends[0].isSwitch || !e.ends[1].isSwitch;
        spokes += spoke ? 1 : 0;
        for (std::size_t side = 0; side < 2; ++side) {
            sim::Partition *src = part_of(e.ends[side]);
            sim::Partition *dst = part_of(e.ends[side ^ 1]);
            ASSERT_NE(src, nullptr) << e.link->name();
            ASSERT_NE(dst, nullptr) << e.link->name();
            sim::Mailbox *mb = e.link->outbox(static_cast<int>(side));
            if (spoke) {
                EXPECT_EQ(src, dst) << e.link->name();
                EXPECT_EQ(mb, nullptr) << e.link->name();
                continue;
            }
            ASSERT_NE(src, dst) << e.link->name();
            ASSERT_NE(mb, nullptr) << e.link->name();
            ++crossings;
            EXPECT_EQ(&mb->src(), src);
            EXPECT_EQ(&mb->dst(), dst);
            EXPECT_EQ(mb->lookahead(), expect) << e.link->name();
        }
    }
    EXPECT_EQ(spokes, bed.numHosts());
    EXPECT_GT(crossings, 0u);
}

} // namespace

TEST(Topology, DualStarParallelSocketsSmoke)
{
    apps::SocketsTestbed bed(8, SocketsFabric::GigabitEthernet, 1,
                             host::HostCostModel{},
                             FabricTopology::DualStar);
    bed.enableParallel(2);
    ASSERT_NE(bed.engine(), nullptr);
    // One partition per star; its four hosts share it.
    expectLeafGrouping(bed, 2);

    // Ring traffic: every host sends to its clockwise neighbour.
    std::vector<apps::TtcpPair> pairs;
    for (std::size_t i = 0; i < 8; ++i)
        pairs.push_back(apps::TtcpPair{i, (i + 1) % 8});
    const auto r = apps::runSocketsTtcpPairs(bed, pairs, 32 * 1024);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.pairsCompleted, 8u);
    EXPECT_GT(bed.engine()->epochs(), 0u);
    EXPECT_GT(bed.engine()->executed(), 0u);
    // Half the ring crosses the trunk, and only the trunk is mailed.
    EXPECT_GT(bed.sim().stats().counterValue("parallel.mailboxPosts"),
              0u);
}

TEST(Topology, HorizonReachIsTheLongestShortestLookaheadPath)
{
    // Every trunk carries the same link, so each has one lookahead L.
    const auto lookahead = [](const net::Fabric &fab) {
        for (const net::Fabric::Edge &e : fab.edges()) {
            if (e.ends[0].isSwitch && e.ends[1].isSwitch) {
                const net::LinkConfig &c = e.link->config();
                return c.propDelay +
                       e.link->serializationDelay(c.overheadBytes);
            }
        }
        return sim::Tick(0);
    };
    sim::Simulation simu(1);
    // One switch: no trunk, nothing to cover.
    net::StarFabric star(simu, "star", net::gigabitEthernetLink());
    EXPECT_EQ(net::horizonReach(star), 0u);
    // Two switches: the trunk's round trip.
    net::DualStarFabric ds(simu, "ds", net::gigabitEthernetLink(), 4);
    EXPECT_GT(lookahead(ds), 0u);
    EXPECT_EQ(net::horizonReach(ds), 2 * lookahead(ds));
    // Two levels: edge to edge through a spine, and every round trip,
    // are two trunks.
    net::FatTreeFabric ft(simu, "ft", net::gigabitEthernetLink(), 8, 2,
                          2);
    EXPECT_EQ(net::horizonReach(ft), 2 * lookahead(ft));
    simu.eventQueue().clear();
}

TEST(Topology, FatTree128ParallelLayout)
{
    // k=8: 32 edge switches of 4 hosts and 4 spines, one partition
    // each, and every host in its edge switch's.
    apps::SocketsTestbed bed(128, SocketsFabric::GigabitEthernet, 1,
                             host::HostCostModel{},
                             FabricTopology::FatTreeK8);
    bed.enableParallel(2);
    ASSERT_NE(bed.engine(), nullptr);
    expectLeafGrouping(bed, 36);
}

TEST(Topology, DualStarParallelQpipSmoke)
{
    apps::QpipTestbed bed(2, apps::qpipNativeMtu, 1,
                          nic::QpipNicParams{}, host::HostCostModel{},
                          apps::IpFamily::V6,
                          FabricTopology::DualStar);
    bed.enableParallel(2);
    ASSERT_NE(bed.engine(), nullptr);
    // Hosts 0 and 1 sit on different stars, so in different
    // partitions: the transfer crosses the trunk's partition boundary
    // each way.
    EXPECT_EQ(bed.engine()->numPartitions(), 2u);
    const auto r = apps::runQpipTtcp(bed, 64 * 1024);
    EXPECT_TRUE(r.completed);
    EXPECT_GT(r.mbPerSec, 0.0);
    EXPECT_GT(bed.engine()->epochs(), 0u);
    EXPECT_GT(bed.sim().stats().counterValue("parallel.mailboxPosts"),
              0u);
}

// Per-connection TCP stats register and unregister from inside the
// partitions: every host runs in its star's partition, the two stars
// on two of 4 engine threads, accepts one connection and opens
// another, then both ends close. Each connection's paths appear while
// it lives and are gone once it has closed.
TEST(Topology, ParallelConnectionStatsComeAndGo)
{
    constexpr std::size_t hosts = 8;
    apps::SocketsTestbed bed(hosts, SocketsFabric::GigabitEthernet, 1,
                             host::HostCostModel{},
                             FabricTopology::DualStar);
    bed.enableParallel(4);
    auto &sim = bed.sim();
    const std::size_t before = sim.stats().size();
    EXPECT_TRUE(sim.stats().match("*.tcp.*").empty());

    auto cfg = bed.tcpConfig();
    for (std::size_t i = 0; i < hosts; ++i) {
        bed.host(i).stack().tcpListen(
            7, cfg, [](std::shared_ptr<host::TcpSocket> sock) {
                // Close on the client's FIN.
                sock->recv(64, [sock](std::vector<std::uint8_t> d) {
                    if (d.empty())
                        sock->close();
                });
            });
    }
    std::vector<std::shared_ptr<host::TcpSocket>> clients;
    for (std::size_t i = 0; i < hosts; ++i) {
        clients.push_back(bed.host(i).stack().tcpConnect(
            bed.addr(i, 30000), bed.addr((i + 1) % hosts, 7), cfg,
            nullptr));
    }
    sim.runUntilCondition(
        [&] {
            return sim.stats().match("*.tcp.*.segsOut").size() ==
                   2 * hosts;
        },
        sim.now() + sim::oneSec);
    const auto live = sim.stats().match("*.tcp.*.segsOut");
    ASSERT_EQ(live.size(), 2 * hosts);
    // One accepted and one opened connection on every host.
    std::map<std::string, std::size_t> perHost;
    for (const auto &path : live)
        ++perHost[path.substr(0, path.find('.'))];
    EXPECT_EQ(perHost.size(), hosts);
    for (const auto &[host, conns] : perHost)
        EXPECT_EQ(conns, 2u) << host;
    for (const auto &path : live)
        EXPECT_GT(sim.stats().counterValue(path), 0u) << path;

    EXPECT_EQ(bed.engine()->numPartitions(), 2u);
    EXPECT_GT(sim.stats().counterValue("parallel.mailboxPosts"), 0u);
    for (const auto &c : clients)
        c->close();
    clients.clear();
    sim.runUntilCondition(
        [&] { return sim.stats().size() == before; },
        sim.now() + 10 * sim::oneSec);
    EXPECT_EQ(sim.stats().size(), before);
    EXPECT_TRUE(sim.stats().match("*.tcp.*").empty());
}

// tapLink feeds one writer from both directions of a link. That is
// safe wherever the two directions run on one queue: on every link of
// a one-partition star, and on a partitioned fabric's spokes, which
// share their leaf switch's partition. A trunk's directions run in two
// partitions, possibly at once, so there it must refuse, in either
// setup order, and name the per-side call to use instead.

namespace {

/** Frames both directions of @p link put on the wire. */
std::uint64_t
framesSent(const net::Link &link)
{
    return link.counters(0).packetsSent.value() +
           link.counters(1).packetsSent.value();
}

/** The link joining the two switches of a dual-star. */
net::Link &
trunkOf(net::Fabric &fabric)
{
    for (const auto &e : fabric.edges()) {
        if (e.ends[0].isSwitch && e.ends[1].isSwitch)
            return *e.link;
    }
    sim::panic("the fabric has no trunk");
}

/**
 * One capture of both spokes of a 2-host star carrying a ttcp, split
 * into one partition at @p threads workers (0: unpartitioned).
 */
std::vector<std::uint8_t>
starCapture(int threads)
{
    apps::SocketsTestbed bed(2, SocketsFabric::GigabitEthernet);
    if (threads > 0)
        bed.enableParallel(threads);
    net::PcapWriter pcap;
    for (net::NodeId node = 0; node < 2; ++node)
        net::tapLink(bed.fabric().linkFor(node), pcap);
    EXPECT_TRUE(apps::runSocketsTtcp(bed, 64 * 1024).completed);
    EXPECT_EQ(pcap.frames(), framesSent(bed.fabric().linkFor(0)) +
                                 framesSent(bed.fabric().linkFor(1)));
    return pcap.bytes();
}

} // namespace

TEST(Pcap, TapLinkOnAOnePartitionStar)
{
    const std::vector<std::uint8_t> serial = starCapture(0);
    EXPECT_FALSE(serial.empty());
    for (const int threads : {1, 4})
        EXPECT_EQ(starCapture(threads), serial) << threads;
}

TEST(Pcap, TapLinkOnAPartitionedSpoke)
{
    // Host 1's spoke, in its switch's partition, which is not
    // partition 0, where the link object itself stays.
    for (const bool tap_first : {true, false}) {
        SCOPED_TRACE(tap_first);
        apps::SocketsTestbed bed(2, SocketsFabric::GigabitEthernet, 1,
                                 host::HostCostModel{},
                                 FabricTopology::DualStar);
        net::Link &spoke = bed.fabric().linkFor(1);
        net::PcapWriter pcap;
        if (tap_first)
            net::tapLink(spoke, pcap);
        bed.enableParallel(2);
        if (!tap_first)
            net::tapLink(spoke, pcap);
        EXPECT_NE(bed.partitionOf(1).id(), 0u);
        EXPECT_TRUE(apps::runSocketsTtcp(bed, 64 * 1024).completed);
        EXPECT_GT(spoke.counters(0).packetsSent.value(), 0u);
        EXPECT_GT(spoke.counters(1).packetsSent.value(), 0u);
        EXPECT_EQ(pcap.frames(), framesSent(spoke));
    }
}

TEST(PcapDeathTest, TapLinkBeforePartitioningPanics)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            apps::SocketsTestbed bed(2, SocketsFabric::GigabitEthernet,
                                     1, host::HostCostModel{},
                                     FabricTopology::DualStar);
            net::PcapWriter pcap;
            net::tapLink(trunkOf(bed.fabric()), pcap);
            bed.enableParallel(2);
        },
        "tapLinkSide");
}

TEST(PcapDeathTest, TapLinkAfterPartitioningPanics)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            apps::SocketsTestbed bed(2, SocketsFabric::GigabitEthernet,
                                     1, host::HostCostModel{},
                                     FabricTopology::DualStar);
            bed.enableParallel(2);
            net::PcapWriter pcap;
            net::tapLink(trunkOf(bed.fabric()), pcap);
        },
        "tapLinkSide");
}

// A one-switch star stays one partition, which traces as an
// unpartitioned run does, byte for byte: each link span is numbered by
// its direction's own count, whichever queue runs it.
TEST(Topology, OnePartitionTraceMatchesUnpartitioned)
{
    const auto trace = [](int threads) {
        apps::QpipTestbed bed(2);
        if (threads > 0) {
            bed.enableParallel(threads);
            EXPECT_EQ(bed.engine()->numPartitions(), 1u);
        }
        bed.sim().tracer().enable();
        EXPECT_TRUE(apps::runQpipTtcp(bed, 64 * 1024).completed);
        return bed.sim().tracer().json();
    };
    const std::string serial = trace(0);
    EXPECT_NE(serial.find("\"seq\""), std::string::npos);
    for (const int threads : {1, 4})
        EXPECT_EQ(trace(threads), serial) << threads;
}

// What a testbed split into more than one partition refuses, each
// before any event runs: tracing (span order would follow thread
// timing), an event pending in a queue its object is not bound to,
// and a second split.

TEST(PartitionedTestbedDeathTest, RefusesTracing)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            apps::SocketsTestbed bed(2, SocketsFabric::GigabitEthernet,
                                     1, host::HostCostModel{},
                                     FabricTopology::DualStar);
            bed.enableParallel(1);
            bed.sim().tracer().enable();
            bed.sim().runUntil(sim::oneMs);
        },
        "event tracing is unsupported");
}

TEST(PartitionedTestbedDeathTest, RefusesAnUnassignedObjectsEvent)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            apps::SocketsTestbed bed(2, SocketsFabric::GigabitEthernet,
                                     1, host::HostCostModel{},
                                     FabricTopology::DualStar);
            bed.enableParallel(1);
            sim::SimObject orphan(bed.sim(), "orphan");
            orphan.schedule(sim::oneUs, [] {});
            bed.sim().runUntil(sim::oneMs);
        },
        "a SimObject was not assigned to any partition");
}

TEST(PartitionedTestbedDeathTest, RefusesAnEventItsObjectLeft)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            apps::SocketsTestbed bed(2, SocketsFabric::GigabitEthernet,
                                     1, host::HostCostModel{},
                                     FabricTopology::DualStar);
            sim::SimObject store(bed.sim(), "store");
            store.schedule(sim::oneUs, [] {});
            bed.enableParallel(1);
            bed.engine()->assignByPrefix("store", bed.partitionOf(1));
            bed.sim().runUntil(sim::oneMs);
        },
        "a SimObject was not assigned to any partition");
}

TEST(PartitionedTestbedDeathTest, RefusesASecondEnableParallel)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            apps::SocketsTestbed bed(2, SocketsFabric::GigabitEthernet,
                                     1, host::HostCostModel{},
                                     FabricTopology::DualStar);
            bed.enableParallel(1);
            bed.enableParallel(1);
        },
        "ParallelEngine: .*already");
}
