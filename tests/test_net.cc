/**
 * @file
 * Unit tests for the fabric layer: serialization primitives, link
 * timing/MTU/queueing, switch forwarding, fault injection.
 */

#include <gtest/gtest.h>

#include "net/fault.hh"
#include "net/link.hh"
#include "net/serialize.hh"
#include "net/switch.hh"
#include "net/topology.hh"
#include "sim/parallel_engine.hh"
#include "sim/simulation.hh"

using namespace qpip;
using namespace qpip::net;

namespace {

/** Collects delivered packets with their arrival times. */
class SinkPort : public NetReceiver
{
  public:
    explicit SinkPort(sim::Simulation &sim) : sim_(sim) {}

    void
    onPacket(PacketPtr pkt) override
    {
        packets.push_back(pkt);
        arrivals.push_back(sim_.now());
    }

    std::vector<PacketPtr> packets;
    std::vector<sim::Tick> arrivals;

  private:
    sim::Simulation &sim_;
};

PacketPtr
somePacket(std::size_t bytes, NodeId dst = 1)
{
    auto pkt = makePacket();
    pkt->dst = dst;
    pkt->src = 0;
    pkt->data.assign(bytes, 0xab);
    return pkt;
}

} // namespace

TEST(Serialize, RoundTripsBigEndian)
{
    std::vector<std::uint8_t> buf;
    ByteWriter w(buf);
    w.u8(0x12);
    w.u16(0x3456);
    w.u32(0x789abcde);
    w.u64(0x0123456789abcdefULL);
    EXPECT_EQ(buf.size(), 15u);
    EXPECT_EQ(buf[1], 0x34); // big-endian order on the wire
    EXPECT_EQ(buf[2], 0x56);

    ByteReader r(buf);
    EXPECT_EQ(r.u8(), 0x12);
    EXPECT_EQ(r.u16(), 0x3456);
    EXPECT_EQ(r.u32(), 0x789abcdeu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(Serialize, ReaderFailsSoftOnUnderrun)
{
    std::vector<std::uint8_t> buf{1, 2};
    ByteReader r(buf);
    EXPECT_EQ(r.u32(), 0u);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_TRUE(r.rest().empty());
}

TEST(Serialize, PatchU16OverwritesInPlace)
{
    std::vector<std::uint8_t> buf;
    ByteWriter w(buf);
    w.u16(0);
    w.u16(0xbeef);
    w.patchU16(0, 0xdead);
    ByteReader r(buf);
    EXPECT_EQ(r.u16(), 0xdead);
    EXPECT_EQ(r.u16(), 0xbeef);
}

TEST(Link, DeliversWithSerializationPlusPropagation)
{
    sim::Simulation sim;
    LinkConfig cfg;
    cfg.bitsPerSec = 1e9;
    cfg.propDelay = sim::oneUs;
    cfg.mtu = 1500;
    cfg.overheadBytes = 0;
    Link link(sim, "l", cfg);
    SinkPort sink(sim);
    link.attach(1, sink);

    link.send(0, somePacket(1000));
    sim.run();
    ASSERT_EQ(sink.packets.size(), 1u);
    // 1000 B at 1 Gb/s = 8 us serialization + 1 us propagation.
    EXPECT_EQ(sink.arrivals[0], 9 * sim::oneUs);
}

TEST(Link, TransmitterSerializesBackToBackPackets)
{
    sim::Simulation sim;
    LinkConfig cfg;
    cfg.bitsPerSec = 1e9;
    cfg.propDelay = 0;
    cfg.overheadBytes = 0;
    Link link(sim, "l", cfg);
    SinkPort sink(sim);
    link.attach(1, sink);

    link.send(0, somePacket(1250)); // 10 us each
    link.send(0, somePacket(1250));
    sim.run();
    ASSERT_EQ(sink.arrivals.size(), 2u);
    EXPECT_EQ(sink.arrivals[0], 10 * sim::oneUs);
    EXPECT_EQ(sink.arrivals[1], 20 * sim::oneUs);
}

TEST(Link, DropsOversizePackets)
{
    sim::Simulation sim;
    Link link(sim, "l", gigabitEthernetLink());
    SinkPort sink(sim);
    link.attach(1, sink);
    EXPECT_FALSE(link.send(0, somePacket(1501)));
    sim.run();
    EXPECT_TRUE(sink.packets.empty());
    EXPECT_EQ(link.counters(0).oversizeDrops.value(), 1u);
}

TEST(Link, FullDuplexDirectionsAreIndependent)
{
    sim::Simulation sim;
    LinkConfig cfg;
    cfg.bitsPerSec = 1e9;
    cfg.propDelay = 0;
    cfg.overheadBytes = 0;
    Link link(sim, "l", cfg);
    SinkPort sink0(sim), sink1(sim);
    link.attach(0, sink0);
    link.attach(1, sink1);
    link.send(0, somePacket(1250));
    link.send(1, somePacket(1250));
    sim.run();
    // Both arrive at 10 us: no shared-medium contention.
    ASSERT_EQ(sink0.arrivals.size(), 1u);
    ASSERT_EQ(sink1.arrivals.size(), 1u);
    EXPECT_EQ(sink0.arrivals[0], sink1.arrivals[0]);
    // Each direction counts only what it sent.
    for (int side = 0; side < 2; ++side) {
        EXPECT_EQ(link.counters(side).packetsSent.value(), 1u);
        EXPECT_EQ(link.counters(side).bytesSent.value(), 1250u);
    }
}

TEST(Fault, DropAndDuplicate)
{
    sim::Simulation sim;
    LinkConfig cfg = gigabitEthernetLink();
    Link link(sim, "l", cfg);
    SinkPort sink(sim);
    link.attach(1, sink);

    link.faultConfig().dropProb = 1.0;
    link.send(0, somePacket(100));
    sim.run();
    EXPECT_TRUE(sink.packets.empty());
    EXPECT_EQ(link.counters(0).faultDrops.value(), 1u);

    link.faultConfig().dropProb = 0.0;
    link.faultConfig().dupProb = 1.0;
    link.send(0, somePacket(100));
    sim.run();
    EXPECT_EQ(sink.packets.size(), 2u);
}

TEST(Fault, CorruptionFlipsBytes)
{
    sim::Simulation sim;
    Link link(sim, "l", gigabitEthernetLink());
    SinkPort sink(sim);
    link.attach(1, sink);
    link.faultConfig().corruptProb = 1.0;
    link.send(0, somePacket(100));
    sim.run();
    ASSERT_EQ(sink.packets.size(), 1u);
    int diffs = 0;
    for (auto b : sink.packets[0]->data)
        diffs += (b != 0xab);
    EXPECT_EQ(diffs, 1);
}

namespace {

/** What side 1 of a lossy link saw, and the fault counters. */
struct DiceOutcome
{
    /** (arrival tick, bytes) per delivered copy, in arrival order. */
    std::vector<std::pair<sim::Tick, std::vector<std::uint8_t>>> arrivals;
    std::vector<std::uint64_t> counters;

    bool
    operator==(const DiceOutcome &o) const
    {
        return arrivals == o.arrivals && counters == o.counters;
    }
};

/** Records arrivals against the queue the link direction runs on. */
class QueueSink : public NetReceiver
{
  public:
    explicit QueueSink(sim::EventQueue &eq, DiceOutcome &out)
        : eq_(eq), out_(out)
    {}

    void
    onPacket(PacketPtr pkt) override
    {
        out_.arrivals.emplace_back(eq_.now(), pkt->data);
    }

  private:
    sim::EventQueue &eq_;
    DiceOutcome &out_;
};

/**
 * Send 200 numbered packets through side 0 of a link that drops,
 * duplicates, corrupts and reorders a fifth of them each. With
 * @p bound, the direction is bound into a partition first.
 */
DiceOutcome
rollLossyDirection(bool bound)
{
    sim::Simulation sim(7);
    sim::EventSource harness = sim.addSource();
    Link link(sim, "l", gigabitEthernetLink());
    link.faultConfig() = FaultConfig{0.2, 0.2, 0.2, 0.2, 20 * sim::oneUs};
    sim::EventQueue *eq = &sim.eventQueue();
    if (bound) {
        eq = &sim.engine().addPartition("p").eventQueue();
        link.bind({LinkBoundary{eq, nullptr},
                   LinkBoundary{&sim.eventQueue(), nullptr}});
    }
    DiceOutcome out;
    QueueSink sink(*eq, out);
    link.attach(1, sink);
    for (int i = 0; i < 200; ++i) {
        const sim::Tick at = static_cast<sim::Tick>(i) * 20 * sim::oneUs;
        eq->schedule(harness.key(at), [&link, i] {
            auto pkt = somePacket(100);
            pkt->data[0] = static_cast<std::uint8_t>(i);
            link.send(0, pkt);
        });
    }
    sim.run();
    const LinkCounters &c = link.counters(0);
    out.counters = {c.packetsSent.value(), c.faultDrops.value(),
                    c.faultDups.value(), c.faultCorruptions.value(),
                    c.faultReorders.value()};
    return out;
}

} // namespace

TEST(Fault, DirectionDiceIgnoreBinding)
{
    // A direction's k-th fault decision depends only on the seed, the
    // link's name and the side: binding the direction into a partition
    // must not change a single drop, duplicate, flipped byte or delay.
    const DiceOutcome serial = rollLossyDirection(false);
    const DiceOutcome bound = rollLossyDirection(true);
    EXPECT_TRUE(serial == bound);
    // Every kind of fault really fired.
    ASSERT_EQ(serial.counters.size(), 5u);
    EXPECT_EQ(serial.counters[0], 200u);
    for (std::size_t i = 1; i < serial.counters.size(); ++i)
        EXPECT_GT(serial.counters[i], 0u) << i;
    // The counters account for every copy: sent - dropped + duplicated.
    EXPECT_EQ(serial.arrivals.size(),
              serial.counters[0] - serial.counters[1] + serial.counters[2]);
}

TEST(Switch, ForwardsByDestination)
{
    sim::Simulation sim;
    StarFabric star(sim, "star", myrinetLink());
    Link &l0 = star.addNode(0);
    Link &l1 = star.addNode(1);
    Link &l2 = star.addNode(2);
    SinkPort s0(sim), s1(sim), s2(sim);
    l0.attach(0, s0);
    l1.attach(0, s1);
    l2.attach(0, s2);

    l0.send(0, somePacket(64, 2));
    l1.send(0, somePacket(64, 0));
    sim.run();
    EXPECT_EQ(s2.packets.size(), 1u);
    EXPECT_EQ(s0.packets.size(), 1u);
    EXPECT_TRUE(s1.packets.empty());
    EXPECT_EQ(star.fabricSwitch().forwarded.value(), 2u);
}

TEST(Switch, DropsUnroutable)
{
    sim::Simulation sim;
    StarFabric star(sim, "star", myrinetLink());
    Link &l0 = star.addNode(0);
    star.addNode(2);
    // Past the last routed node, and a hole below it.
    l0.send(0, somePacket(64, 99));
    l0.send(0, somePacket(64, 1));
    l0.send(0, somePacket(64, invalidNode));
    sim.run();
    EXPECT_EQ(star.fabricSwitch().unroutableDrops.value(), 3u);
    EXPECT_EQ(star.fabricSwitch().forwarded.value(), 0u);
}

TEST(Switch, NeverForwardsOutTheIngressPort)
{
    sim::Simulation sim;
    StarFabric star(sim, "star", myrinetLink());
    Link &l0 = star.addNode(0);
    star.addNode(1);
    SinkPort s0(sim);
    l0.attach(0, s0);
    // Node 0's route is the port the frame came in on.
    l0.send(0, somePacket(64, 0));
    sim.run();
    EXPECT_TRUE(s0.packets.empty());
    EXPECT_EQ(star.fabricSwitch().unroutableDrops.value(), 1u);
    EXPECT_EQ(star.fabricSwitch().forwarded.value(), 0u);
}

TEST(Switch, CutThroughAddsFixedLatency)
{
    sim::Simulation sim;
    LinkConfig cfg = myrinetLink();
    cfg.propDelay = 0;
    cfg.overheadBytes = 0;
    StarFabric star(sim, "star", cfg);
    Link &l0 = star.addNode(0);
    Link &l1 = star.addNode(1);
    SinkPort s1(sim);
    l1.attach(0, s1);
    (void)l0;

    l0.send(0, somePacket(1000, 1));
    sim.run();
    ASSERT_EQ(s1.arrivals.size(), 1u);
    // serialization (hop 1) + routing + serialization (hop 2):
    // 1000 B at 2 Gb/s = 4 us each, plus 300 ns cut-through.
    EXPECT_EQ(s1.arrivals[0], 2 * 4 * sim::oneUs + 300 * sim::oneNs);
}

// ---------------------------------------------------------------------
// Packet / buffer pooling
// ---------------------------------------------------------------------

TEST(PacketPool, RecyclesPacketsWithFullFieldReset)
{
    const auto before = poolStats();
    Packet *raw;
    std::uint64_t firstId;
    {
        auto pkt = makePacket();
        raw = pkt.get();
        firstId = pkt->id;
        pkt->src = 5;
        pkt->dst = 9;
        pkt->proto = NetProto::Ipv6;
        pkt->linkOverheadBytes = 42;
        pkt->injectedAt = 1234;
        pkt->data.assign(64, 0xee);
    } // last ref dropped: packet returns to the pool

    auto pkt2 = makePacket();
    const auto after = poolStats();
    // Same storage came back (LIFO freelist)...
    EXPECT_EQ(pkt2.get(), raw);
    EXPECT_GT(after.packetsRecycled, before.packetsRecycled);
    // ...but behaviorally it is a fresh packet.
    EXPECT_NE(pkt2->id, firstId);
    EXPECT_EQ(pkt2->src, invalidNode);
    EXPECT_EQ(pkt2->dst, invalidNode);
    EXPECT_EQ(pkt2->proto, NetProto::Raw);
    EXPECT_EQ(pkt2->linkOverheadBytes, 0u);
    EXPECT_EQ(pkt2->injectedAt, 0u);
    EXPECT_TRUE(pkt2->data.empty());
}

TEST(PacketPool, IntrusiveRefcountKeepsPacketAliveAcrossCopies)
{
    auto pkt = makePacket();
    pkt->data.assign(8, 0x11);
    PacketPtr copy = pkt;
    PacketPtr moved = std::move(pkt);
    EXPECT_FALSE(pkt);
    ASSERT_TRUE(copy);
    ASSERT_TRUE(moved);
    EXPECT_EQ(copy.get(), moved.get());
    copy.reset();
    EXPECT_EQ(moved->data.size(), 8u);
}

TEST(PacketPool, BufferPoolReturnsClearedStorageWithCapacity)
{
    std::vector<std::uint8_t> buf = acquireBuffer();
    buf.assign(4096, 0x5a);
    const auto *storage = buf.data();
    recycleBuffer(std::move(buf));
    std::vector<std::uint8_t> again = acquireBuffer();
    EXPECT_EQ(again.data(), storage); // LIFO: same storage back
    EXPECT_TRUE(again.empty());
    EXPECT_GE(again.capacity(), 4096u);
}

TEST(PacketPool, ClonedPacketGetsFreshIdAndOwnStorage)
{
    auto a = makePacket();
    a->data.assign(16, 0x7f);
    a->src = 1;
    a->dst = 2;
    auto b = clonePacket(*a);
    EXPECT_NE(a->id, b->id);
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(a->data, b->data);
    b->data[0] = 0;
    EXPECT_EQ(a->data[0], 0x7f);
}
