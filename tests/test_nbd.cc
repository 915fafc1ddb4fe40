/**
 * @file
 * NBD application tests: wire format, disk/store models, end-to-end
 * data integrity over both transports (read-back verification against
 * a real in-memory device), and the flush/sync contract.
 */

#include <gtest/gtest.h>

#include "apps/nbd.hh"

using namespace qpip;
using namespace qpip::apps;

TEST(NbdWire, RequestRoundTrip)
{
    NbdRequest req;
    req.type = NbdOp::Write;
    req.handle = 0x1122334455667788ULL;
    req.offset = 0xdeadbeef00ULL;
    req.length = 65536;
    std::vector<std::uint8_t> payload{1, 2, 3};
    auto wire = serializeNbdRequest(req, payload);
    EXPECT_EQ(wire.size(), nbdRequestHeaderBytes + 3);

    NbdRequest out;
    ASSERT_TRUE(parseNbdRequest(wire, out));
    EXPECT_EQ(out.type, NbdOp::Write);
    EXPECT_EQ(out.handle, req.handle);
    EXPECT_EQ(out.offset, req.offset);
    EXPECT_EQ(out.length, req.length);
}

TEST(NbdWire, RejectsBadMagic)
{
    auto wire = serializeNbdRequest(NbdRequest{});
    wire[0] ^= 0xff;
    NbdRequest out;
    EXPECT_FALSE(parseNbdRequest(wire, out));

    auto rep = serializeNbdReply(1, 0);
    rep[0] ^= 0xff;
    std::uint64_t h;
    std::uint32_t e;
    EXPECT_FALSE(parseNbdReply(rep, h, e));
}

TEST(NbdWire, ReplyRoundTrip)
{
    auto wire = serializeNbdReply(42, 5);
    std::uint64_t handle = 0;
    std::uint32_t error = 0;
    ASSERT_TRUE(parseNbdReply(wire, handle, error));
    EXPECT_EQ(handle, 42u);
    EXPECT_EQ(error, 5u);
}

TEST(DiskModel, SequentialSkipsSeek)
{
    sim::Simulation sim;
    DiskParams p;
    p.bytesPerSec = 1e8; // 10 ns/byte
    p.seekTime = sim::oneMs;
    p.rotationalDelay = 0;
    DiskModel disk(sim, "disk", p);

    int done = 0;
    disk.access(0, 100000, [&] { ++done; });
    disk.access(100000, 100000, [&] { ++done; }); // sequential
    disk.access(500000, 100000, [&] { ++done; }); // seek
    sim.run();
    EXPECT_EQ(done, 3);
    EXPECT_EQ(disk.seeks.value(), 2u); // first access + the jump
    // 3 transfers of 1 ms each + 2 positioning delays of 1 ms.
    EXPECT_EQ(sim.now(), 5 * sim::oneMs);
}

TEST(ServerStore, CacheHitsAfterWrite)
{
    sim::Simulation sim;
    ServerStore store(sim, "store", 1 << 20);
    bool w = false, r = false;
    store.write(0, 4096, [&] { w = true; });
    sim.run();
    ASSERT_TRUE(w);
    store.read(0, 4096, [&] { r = true; });
    sim.run();
    EXPECT_TRUE(r);
    EXPECT_EQ(store.cacheHits.value(), 1u);
    EXPECT_EQ(store.cacheMisses.value(), 0u);
}

TEST(ServerStore, PreloadMakesReadsHit)
{
    sim::Simulation sim;
    ServerStore store(sim, "store", 1 << 20);
    store.preloadCache();
    bool r = false;
    store.read(12345, 4096, [&] { r = true; });
    sim.run();
    EXPECT_TRUE(r);
    EXPECT_EQ(store.cacheHits.value(), 1u);
}

TEST(ServerStore, WriteBackThrottlesWhenDirtyFull)
{
    sim::Simulation sim;
    DiskParams slow;
    slow.bytesPerSec = 1e6; // very slow disk
    slow.seekTime = 0;
    slow.rotationalDelay = 0;
    ServerStore store(sim, "store", 1 << 24, slow,
                      /*dirty_cap=*/8192);
    int accepted = 0;
    for (int i = 0; i < 4; ++i)
        store.write(i * 8192, 8192, [&] { ++accepted; });
    // With 32 kB offered against an 8 kB dirty cap, later writes must
    // wait for the slow disk.
    sim.runFor(sim::oneMs);
    EXPECT_LT(accepted, 4);
    sim.run();
    EXPECT_EQ(accepted, 4);
}

TEST(ServerStore, FlushWaitsForDrain)
{
    sim::Simulation sim;
    DiskParams slow;
    slow.bytesPerSec = 1e6;
    slow.seekTime = 0;
    slow.rotationalDelay = 0;
    ServerStore store(sim, "store", 1 << 24, slow);
    bool flushed = false;
    store.write(0, 10000, [] {});
    store.flush([&] { flushed = true; });
    sim.runFor(sim::oneMs);
    EXPECT_FALSE(flushed); // 10 kB at 1 MB/s = 10 ms
    sim.run();
    EXPECT_TRUE(flushed);
}

namespace {

/** End-to-end integrity run against a real in-memory device. */
void
integritySockets(SocketsFabric fabric)
{
    const std::uint64_t bytes = 4 << 20;
    SocketsTestbed bed(2, fabric);
    ServerStore store(bed.sim(), "store", bytes);
    std::vector<std::uint8_t> device(bytes, 0);
    NbdServerConfig scfg;
    scfg.content = &device;
    NbdSocketServer server(bed.host(1).stack(), store, scfg);

    NbdClientParams params;
    params.verifyContent = true;
    auto w = runNbdSocketsSequential(bed, 0, 1, true, bytes, params);
    ASSERT_TRUE(w.completed);
    // The device now holds the written pattern everywhere.
    bool any_zero_page = false;
    for (std::uint64_t off = 0; off < bytes; off += 4096)
        any_zero_page |= device[off] == 0 && device[off + 1] == 0 &&
                         device[off + 2] == 0;
    EXPECT_FALSE(any_zero_page);

    auto r = runNbdSocketsSequential(bed, 0, 1, false, bytes, params);
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(r.dataOk); // read-back matches the written pattern
    EXPECT_GT(r.mbPerSec, 1.0);
}

} // namespace

TEST(NbdIntegration, SocketsWriteReadIntegrityGigE)
{
    integritySockets(SocketsFabric::GigabitEthernet);
}

TEST(NbdIntegration, SocketsWriteReadIntegrityMyrinet)
{
    integritySockets(SocketsFabric::MyrinetIp);
}

TEST(NbdIntegration, QpipWriteReadIntegrity)
{
    const std::uint64_t bytes = 4 << 20;
    QpipTestbed bed(2, 9000);
    ServerStore store(bed.sim(), "store", bytes);
    std::vector<std::uint8_t> device(bytes, 0);
    NbdServerConfig scfg;
    scfg.content = &device;
    NbdQpipServer server(bed.provider(1), store, scfg);

    NbdClientParams params;
    params.verifyContent = true;
    auto w = runNbdQpipSequential(bed, 0, 1, true, bytes, params);
    ASSERT_TRUE(w.completed);
    auto r = runNbdQpipSequential(bed, 0, 1, false, bytes, params);
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(r.dataOk);
    EXPECT_GT(r.mbPerSec, 1.0);
    // The lightweight interface shows: far better CPU effectiveness.
    EXPECT_GT(r.mbPerCpuSec, w.clientCpuUtil); // sanity: non-zero
    EXPECT_LT(r.clientCpuUtil, 0.7);
}

TEST(NbdIntegration, VerificationCatchesWrongContentOnBothTransports)
{
    // Nothing was written, so the device holds zeros, not the client's
    // pattern: a verifying read-back must say so on either transport.
    const std::uint64_t bytes = 1 << 20;
    std::vector<std::uint8_t> device(bytes, 0);
    NbdServerConfig scfg;
    scfg.content = &device;
    NbdClientParams params;
    params.verifyContent = true;
    {
        SocketsTestbed bed(2, SocketsFabric::GigabitEthernet);
        ServerStore store(bed.sim(), "store", bytes);
        NbdSocketServer server(bed.host(1).stack(), store, scfg);
        const auto r =
            runNbdSocketsSequential(bed, 0, 1, false, bytes, params);
        ASSERT_TRUE(r.completed);
        EXPECT_FALSE(r.dataOk);
    }
    {
        QpipTestbed bed(2, 9000);
        ServerStore store(bed.sim(), "store", bytes);
        NbdQpipServer server(bed.provider(1), store, scfg);
        const auto r =
            runNbdQpipSequential(bed, 0, 1, false, bytes, params);
        ASSERT_TRUE(r.completed);
        EXPECT_FALSE(r.dataOk);
    }
}

TEST(NbdIntegration, QpipFasterAndCheaperThanSockets)
{
    const std::uint64_t bytes = 8 << 20;
    NbdRunResult gige, qpip;
    {
        SocketsTestbed bed(2, SocketsFabric::GigabitEthernet);
        ServerStore store(bed.sim(), "store", bytes);
        NbdSocketServer server(bed.host(1).stack(), store, {});
        runNbdSocketsSequential(bed, 0, 1, true, bytes);
        gige = runNbdSocketsSequential(bed, 0, 1, false, bytes);
    }
    {
        QpipTestbed bed(2, 9000);
        ServerStore store(bed.sim(), "store", bytes);
        NbdQpipServer server(bed.provider(1), store, {});
        runNbdQpipSequential(bed, 0, 1, true, bytes);
        qpip = runNbdQpipSequential(bed, 0, 1, false, bytes);
    }
    ASSERT_TRUE(gige.completed);
    ASSERT_TRUE(qpip.completed);
    // The paper's Figure 7 claims: 40-137% higher throughput at up to
    // 133% better CPU effectiveness. Require the direction and a
    // conservative margin.
    EXPECT_GT(qpip.mbPerSec, gige.mbPerSec * 1.3);
    EXPECT_GT(qpip.mbPerCpuSec, gige.mbPerCpuSec * 2.0);
}
