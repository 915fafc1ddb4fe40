/**
 * @file
 * Component-level tests for units not covered elsewhere: the doorbell
 * FIFO, the DMA engine, Ethernet NIC ring behaviour, sockbufs, switch
 * output contention and the LanaiProcessor resource semantics.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "apps/testbed.hh"
#include "host/sockbuf.hh"
#include "nic/doorbell.hh"
#include "nic/dma.hh"
#include "nic/lanai.hh"

using namespace qpip;

TEST(DoorbellFifo, DeliversAfterPciWriteLatency)
{
    sim::Simulation sim;
    nic::DoorbellFifo db(sim, "db", 4);
    int drained = 0;
    db.setDrainHook([&] { ++drained; });
    db.ring(nic::Doorbell{1, true});
    EXPECT_EQ(db.depth(), 0u); // not landed yet
    sim.run();
    EXPECT_EQ(drained, 1);
    EXPECT_EQ(db.depth(), 1u);
    nic::Doorbell out;
    ASSERT_TRUE(db.pop(out));
    EXPECT_EQ(out.qp, 1u);
    EXPECT_TRUE(out.isSend);
    EXPECT_FALSE(db.pop(out));
}

TEST(DoorbellFifo, OverflowsBeyondCapacity)
{
    sim::Simulation sim;
    nic::DoorbellFifo db(sim, "db", 2);
    for (unsigned i = 0; i < 5; ++i)
        db.ring(nic::Doorbell{i, false});
    sim.run();
    EXPECT_EQ(db.depth(), 2u);
    EXPECT_EQ(db.overflows.value(), 3u);
    EXPECT_EQ(db.rings.value(), 5u);
}

TEST(DoorbellFifo, RingBufferWrapsAcrossPops)
{
    sim::Simulation sim;
    nic::DoorbellFifo db(sim, "db", 2);
    db.ring(nic::Doorbell{1, true});
    db.ring(nic::Doorbell{2, true});
    sim.run();
    nic::Doorbell out;
    ASSERT_TRUE(db.pop(out));
    EXPECT_EQ(out.qp, 1u);
    // The freed slot takes the next record: storage wraps.
    db.ring(nic::Doorbell{3, true});
    sim.run();
    EXPECT_EQ(db.depth(), 2u);
    EXPECT_EQ(db.overflows.value(), 0u);
    ASSERT_TRUE(db.pop(out));
    EXPECT_EQ(out.qp, 2u);
    ASSERT_TRUE(db.pop(out));
    EXPECT_EQ(out.qp, 3u);
    EXPECT_FALSE(db.pop(out));

    // With a coalescing window: a fold lands on a record stored past
    // the wrap point, and the bound is the FIFO's capacity (6), not
    // its storage's.
    nic::DoorbellFifo wdb(sim, "wdb", 6);
    wdb.coalesceWindow = sim::oneUs;
    for (nic::QpNum qp = 1; qp <= 4; ++qp)
        wdb.ring(nic::Doorbell{qp, true});
    sim.run();
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(wdb.pop(out));
    // Records 5-7 wrap around behind record 4.
    for (nic::QpNum qp = 5; qp <= 7; ++qp)
        wdb.ring(nic::Doorbell{qp, true});
    wdb.ring(nic::Doorbell{6, true, false, 2}); // folds into 6
    sim.run();
    EXPECT_EQ(wdb.depth(), 4u);
    EXPECT_EQ(wdb.coalesced.value(), 1u);
    wdb.ring(nic::Doorbell{8, true});
    wdb.ring(nic::Doorbell{9, true});
    sim.run();
    EXPECT_EQ(wdb.depth(), 6u);
    EXPECT_EQ(wdb.overflows.value(), 0u);
    wdb.ring(nic::Doorbell{10, true}); // no seventh slot
    sim.run();
    EXPECT_EQ(wdb.depth(), 6u);
    EXPECT_EQ(wdb.overflows.value(), 1u);
    wdb.ring(nic::Doorbell{9, true}); // a full FIFO still folds
    sim.run();
    EXPECT_EQ(wdb.overflows.value(), 1u);
    EXPECT_EQ(wdb.coalesced.value(), 2u);
    const std::vector<std::pair<nic::QpNum, std::uint32_t>> expect = {
        {4, 1}, {5, 1}, {6, 3}, {7, 1}, {8, 1}, {9, 2}};
    std::vector<std::pair<nic::QpNum, std::uint32_t>> got;
    while (wdb.pop(out))
        got.emplace_back(out.qp, out.wrCount);
    EXPECT_EQ(got, expect);
}

TEST(DoorbellFifo, CoalescingWindowFoldsSameQueue)
{
    sim::Simulation sim;
    nic::DoorbellFifo db(sim, "db", 4);
    db.coalesceWindow = sim::oneUs;
    int drained = 0;
    db.setDrainHook([&] { ++drained; });
    db.ring(nic::Doorbell{7, true});
    db.ring(nic::Doorbell{7, true, false, 3}); // folds into the first
    db.ring(nic::Doorbell{8, true});           // different queue
    sim.run();
    EXPECT_EQ(db.depth(), 2u);
    EXPECT_EQ(db.coalesced.value(), 1u);
    EXPECT_EQ(db.batchedWrs.value(), 3u);
    // A fold joins a record that already triggered the hook.
    EXPECT_EQ(drained, 2);
    nic::Doorbell out;
    ASSERT_TRUE(db.pop(out));
    EXPECT_EQ(out.qp, 7u);
    EXPECT_EQ(out.wrCount, 4u); // 1 + the folded 3
    ASSERT_TRUE(db.pop(out));
    EXPECT_EQ(out.qp, 8u);
    EXPECT_EQ(out.wrCount, 1u);
}

TEST(DoorbellFifo, CoalescingWindowExpires)
{
    sim::Simulation sim;
    nic::DoorbellFifo db(sim, "db", 4);
    db.coalesceWindow = sim::oneUs;
    db.ring(nic::Doorbell{7, true});
    sim.run();
    // Second ring lands well past the first record's window.
    db.writeLatency = 5 * sim::oneUs;
    db.ring(nic::Doorbell{7, true});
    sim.run();
    EXPECT_EQ(db.depth(), 2u);
    EXPECT_EQ(db.coalesced.value(), 0u);
}

TEST(DoorbellFifo, SrqAndQpRecordsNeverFold)
{
    // Send, receive and SRQ rings carrying the same number address
    // three distinct queues: none fold, and drain keeps ring order.
    sim::Simulation sim;
    nic::DoorbellFifo db(sim, "db", 4);
    db.coalesceWindow = sim::oneUs;
    db.ring(nic::Doorbell{5, true, false});
    db.ring(nic::Doorbell{5, false, false});
    db.ring(nic::Doorbell{5, false, true});
    sim.run();
    EXPECT_EQ(db.depth(), 3u);
    EXPECT_EQ(db.coalesced.value(), 0u);
    nic::Doorbell out;
    ASSERT_TRUE(db.pop(out));
    EXPECT_TRUE(out.isSend);
    ASSERT_TRUE(db.pop(out));
    EXPECT_FALSE(out.isSend);
    EXPECT_FALSE(out.isSrq);
    ASSERT_TRUE(db.pop(out));
    EXPECT_TRUE(out.isSrq);
}

TEST(DoorbellFifo, PoppedRecordIsNoLongerAFoldTarget)
{
    sim::Simulation sim;
    nic::DoorbellFifo db(sim, "db", 4);
    db.coalesceWindow = 100 * sim::oneUs;
    db.ring(nic::Doorbell{7, true});
    sim.run();
    nic::Doorbell out;
    ASSERT_TRUE(db.pop(out)); // the FSM consumed it
    // Still inside the window, but the record is gone: new slot.
    db.ring(nic::Doorbell{7, true});
    sim.run();
    EXPECT_EQ(db.depth(), 1u);
    EXPECT_EQ(db.coalesced.value(), 0u);
}

TEST(DmaEngine, SerializesTransfers)
{
    sim::Simulation sim;
    nic::DmaEngine dma(sim, "dma", {1e8, sim::oneUs}); // 100 MB/s
    // 1000 B = 10 us + 1 us setup.
    const auto t1 = dma.charge(1000);
    EXPECT_EQ(t1, 11 * sim::oneUs);
    // Second transfer queues behind the first.
    const auto t2 = dma.charge(1000);
    EXPECT_EQ(t2, 22 * sim::oneUs);
    // chargeAt in the future starts there.
    const auto t3 = dma.chargeAt(100 * sim::oneUs, 1000);
    EXPECT_EQ(t3, 111 * sim::oneUs);
    EXPECT_EQ(dma.busyTotal(), 33 * sim::oneUs);
}

TEST(DmaEngine, CompletionCallbackFires)
{
    sim::Simulation sim;
    nic::DmaEngine dma(sim, "dma", {1e8, sim::oneUs});
    bool done = false;
    dma.transfer(1000, [&] { done = true; });
    sim.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(sim.now(), 11 * sim::oneUs);
}

TEST(LanaiProcessor, StageStatsAccumulatePerCharge)
{
    sim::Simulation sim;
    nic::LanaiProcessor fw(sim, "fw", 133'000'000);
    fw.charge(nic::FwStage::Schedule, 266); // 2 us
    fw.charge(nic::FwStage::Schedule, 133); // 1 us
    const auto &s = fw.stageStat(nic::FwStage::Schedule);
    EXPECT_EQ(s.count(), 2u);
    EXPECT_NEAR(s.mean(), 1.5, 0.01);
    EXPECT_NEAR(sim::ticksToUs(fw.busyTotal()), 3.0, 0.01);
    fw.resetStats();
    EXPECT_EQ(fw.stageStat(nic::FwStage::Schedule).count(), 0u);
}

TEST(LanaiProcessor, ExecRunsAtBusyCompletion)
{
    sim::Simulation sim;
    nic::LanaiProcessor fw(sim, "fw", 100'000'000); // 10 ns/cycle
    std::vector<int> order;
    fw.exec(nic::FwStage::Mgmt, 100, [&] { order.push_back(1); });
    fw.exec(nic::FwStage::Mgmt, 100, [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(sim.now(), 2 * sim::oneUs);
}

TEST(SockBuf, AppendReadFreeSpace)
{
    host::SockBuf sb(10);
    EXPECT_EQ(sb.freeSpace(), 10u);
    std::vector<std::uint8_t> d{1, 2, 3, 4, 5, 6};
    sb.append(d);
    EXPECT_EQ(sb.freeSpace(), 4u);
    auto got = sb.read(4);
    EXPECT_EQ(got, (std::vector<std::uint8_t>{1, 2, 3, 4}));
    EXPECT_EQ(sb.size(), 2u);
    // Over-capacity appends are stored (windows are advisory once
    // data is in flight), free space floors at zero.
    std::vector<std::uint8_t> big(20, 9);
    sb.append(big);
    EXPECT_EQ(sb.freeSpace(), 0u);
    EXPECT_EQ(sb.read(100).size(), 22u);
}

TEST(EthNicModel, RingOverflowDropsFrames)
{
    // Tiny ring + interrupts that can't keep up: drops counted.
    apps::SocketsTestbed bed(2, apps::SocketsFabric::GigabitEthernet);
    // Blast raw packets at host 1's NIC faster than the ISR drains.
    auto &link = bed.fabric().linkFor(1);
    for (int i = 0; i < 600; ++i) {
        auto pkt = net::makePacket();
        pkt->src = 0;
        pkt->dst = 1;
        pkt->proto = net::NetProto::Ipv4;
        pkt->data.assign(64, 0); // bogus; stack will count bad
        link.send(1, pkt);
    }
    bed.sim().run();
    auto &nic = bed.nicOf(1);
    EXPECT_EQ(nic.rxPackets.value(), 600u);
    // Everything that survived the ring reached the stack; drops and
    // deliveries account for all frames.
    EXPECT_EQ(nic.rxRingDrops.value() +
                  bed.host(1).stack().pktsIn.value(),
              600u);
    EXPECT_GT(bed.sim().stats().counterValue("host1.stack.badPktsIn"), 0u);
    // Frames still in DMA flight hold their slots, so the ring never
    // holds more than its cap.
    EXPECT_LE(nic.rxRingPeak(), nic::pro1000Params().rxRingCap);
}

TEST(SwitchContention, TwoSendersShareOneOutputLink)
{
    // Nodes 0 and 1 both blast node 2: the shared output serializes.
    sim::Simulation sim;
    net::LinkConfig cfg = net::myrinetLink(2000);
    cfg.propDelay = 0;
    cfg.overheadBytes = 0;
    net::StarFabric star(sim, "star", cfg);
    auto &l0 = star.addNode(0);
    auto &l1 = star.addNode(1);
    auto &l2 = star.addNode(2);

    struct Sink : net::NetReceiver
    {
        std::vector<sim::Tick> arrivals;
        sim::Simulation &sim;
        explicit Sink(sim::Simulation &s) : sim(s) {}
        void
        onPacket(net::PacketPtr) override
        {
            arrivals.push_back(sim.now());
        }
    } sink(sim);
    l2.attach(0, sink);

    auto send = [&](net::Link &l) {
        auto pkt = net::makePacket();
        pkt->src = 0;
        pkt->dst = 2;
        pkt->data.assign(2000, 1); // 8 us at 2 Gb/s
        l.send(0, pkt);
    };
    send(l0);
    send(l1);
    sim.run();
    ASSERT_EQ(sink.arrivals.size(), 2u);
    // The second frame queues behind the first on the switch->node2
    // link: arrivals at least one serialization time apart.
    EXPECT_GE(sink.arrivals[1] - sink.arrivals[0], 8 * sim::oneUs);
}

TEST(NeighborTable, LookupSemantics)
{
    inet::NeighborTable t;
    auto a = *inet::InetAddr::parse("fd00::1");
    auto b = *inet::InetAddr::parse("10.0.0.1");
    t.add(a, 3);
    t.add(b, 4);
    EXPECT_EQ(t.lookup(a), std::optional<net::NodeId>(3));
    EXPECT_EQ(t.lookup(b), std::optional<net::NodeId>(4));
    EXPECT_FALSE(t.lookup(*inet::InetAddr::parse("fd00::9")));
    t.add(a, 7); // overwrite
    EXPECT_EQ(t.lookup(a), std::optional<net::NodeId>(7));
    EXPECT_EQ(t.size(), 2u);
}

TEST(MrTable, BoundsCheckedResolution)
{
    nic::MrTable mrs;
    std::vector<std::uint8_t> mem(100);
    auto key = mrs.registerMemory(mem.data(), mem.size());
    EXPECT_EQ(mrs.resolve({key, 0, 100}), mem.data());
    EXPECT_EQ(mrs.resolve({key, 50, 50}), mem.data() + 50);
    EXPECT_EQ(mrs.resolve({key, 50, 51}), nullptr);   // overflow
    EXPECT_EQ(mrs.resolve({key + 9, 0, 10}), nullptr); // bad key
    mrs.deregister(key);
    EXPECT_EQ(mrs.resolve({key, 0, 10}), nullptr);
}

TEST(CqRing, OverflowRejectsAndArmNotifies)
{
    nic::CqRing ring(2);
    nic::Completion c;
    EXPECT_TRUE(ring.push(c));
    EXPECT_TRUE(ring.push(c));
    EXPECT_FALSE(ring.push(c)); // full
    EXPECT_EQ(ring.depth(), 2u);

    nic::CqRing armed(8);
    int notified = 0;
    armed.arm([&] { ++notified; });
    EXPECT_TRUE(armed.armed());
    armed.push(c);
    EXPECT_EQ(notified, 1);
    EXPECT_FALSE(armed.armed()); // one-shot
    armed.push(c);
    EXPECT_EQ(notified, 1);
}
