/**
 * @file
 * Property-style parameterized sweeps (gtest TEST_P): invariants that
 * must hold across randomized sizes, seeds, loss rates and MTUs —
 * checksum round-trips, fragmentation reassembly, ByteFifo vs a
 * reference model, TCP stream integrity under random loss, and QPIP
 * message integrity across MTUs.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <deque>

#include "apps/testbed.hh"
#include "apps/ttcp.hh"
#include "apps/verbs_util.hh"
#include "inet/byte_fifo.hh"
#include "inet/checksum.hh"
#include "inet/ip_frag.hh"
#include "net/fault.hh"
#include "tcp_harness.hh"

using namespace qpip;
using namespace qpip::test;

// ---------------------------------------------------------------------
// Checksum: inserting the computed checksum always verifies
// ---------------------------------------------------------------------

class ChecksumProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(ChecksumProperty, ComputedChecksumVerifies)
{
    sim::Random rng(GetParam());
    for (int round = 0; round < 50; ++round) {
        const auto n = static_cast<std::size_t>(
            rng.uniformInt(2, 2000));
        std::vector<std::uint8_t> data(n);
        for (auto &b : data)
            b = static_cast<std::uint8_t>(rng.next());
        // Zero a 16-bit field, compute, insert, verify whole == ok.
        data[0] = data[1] = 0;
        const std::uint16_t c = inet::internetChecksum(data);
        data[0] = static_cast<std::uint8_t>(c >> 8);
        data[1] = static_cast<std::uint8_t>(c);
        EXPECT_TRUE(inet::checksumOk(data));
        // A single bit flip must be detected.
        const auto idx =
            static_cast<std::size_t>(rng.uniformInt(0, n - 1));
        data[idx] ^= static_cast<std::uint8_t>(
            1u << rng.uniformInt(0, 7));
        EXPECT_FALSE(inet::checksumOk(data));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChecksumProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// ---------------------------------------------------------------------
// Checksum: the word-at-a-time fast path equals the byte-wise
// reference for every offset parity, length and add() split
// ---------------------------------------------------------------------

class ChecksumWordwiseProperty
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(ChecksumWordwiseProperty, MatchesBytewiseReference)
{
    sim::Random rng(GetParam());
    for (int round = 0; round < 200; ++round) {
        const auto n =
            static_cast<std::size_t>(rng.uniformInt(0, 4096));
        // Random lead offset exercises unaligned loads.
        const auto lead =
            static_cast<std::size_t>(rng.uniformInt(0, 7));
        std::vector<std::uint8_t> raw(lead + n);
        // Every third round uses 0xff-heavy data: all-ones words
        // drive the intermediate one's-complement folds right up to
        // the 16-bit boundary, the regime where a dropped end-around
        // carry (off-by-one in the folded sum) becomes visible.
        const bool heavy = round % 3 == 0;
        for (auto &b : raw)
            b = heavy && rng.uniformInt(0, 7) != 0
                    ? 0xff
                    : static_cast<std::uint8_t>(rng.next());
        const std::span<const std::uint8_t> data(raw.data() + lead, n);

        inet::ChecksumAccumulator fast;
        inet::ChecksumBytewise ref;

        // Optionally mix in pseudo-header style 16/32-bit fields.
        if (rng.uniformInt(0, 1) == 1) {
            const auto v16 =
                static_cast<std::uint16_t>(rng.next());
            const auto v32 = static_cast<std::uint32_t>(rng.next());
            fast.addU16(v16);
            ref.addU16(v16);
            fast.addU32(v32);
            ref.addU32(v32);
        }

        // Split the span into random add() chunks (including empty
        // and odd-length ones) so the odd-byte stream state is hit.
        std::size_t pos = 0;
        while (pos < data.size()) {
            const auto chunk = static_cast<std::size_t>(
                rng.uniformInt(0, data.size() - pos));
            fast.add(data.subspan(pos, chunk));
            ref.add(data.subspan(pos, chunk));
            if (chunk == 0) {
                fast.add(data.subspan(pos, 1));
                ref.add(data.subspan(pos, 1));
                pos += 1;
            } else {
                pos += chunk;
            }
        }
        ASSERT_EQ(fast.finish(), ref.finish())
            << "len=" << n << " lead=" << lead;

        // One-shot form agrees too.
        ASSERT_EQ(inet::internetChecksum(data),
                  [&] {
                      inet::ChecksumBytewise one;
                      one.add(data);
                      return one.finish();
                  }());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChecksumWordwiseProperty,
                         ::testing::Values(7, 21, 42, 77, 99));

// Regression: a 4-byte span whose native-order accumulator is exactly
// 0x1ffff. Folding that to 16 bits passes through 0x10000, so an
// implementation that folds a fixed number of times and truncates
// (instead of folding to closure) silently drops the final end-around
// carry and reports 0x0000 instead of 0x0001 for the folded word.
TEST(ChecksumWordwise, FoldCarryAtSixteenBitBoundary)
{
    const std::array<std::uint8_t, 4> raw = {0xff, 0xff, 0x01, 0x00};
    inet::ChecksumAccumulator fast;
    inet::ChecksumBytewise ref;
    fast.add(raw);
    ref.add(raw);
    EXPECT_EQ(fast.finish(), ref.finish());
    // Same span offset by every lead alignment, to cover the carry in
    // the 2/4-byte tail loads as well as the 8-byte bulk loop.
    for (std::size_t lead = 0; lead < 8; ++lead) {
        std::vector<std::uint8_t> buf(lead, 0x00);
        for (int rep = 0; rep < 3; ++rep)
            buf.insert(buf.end(), raw.begin(), raw.end());
        inet::ChecksumAccumulator f2;
        inet::ChecksumBytewise r2;
        f2.add({buf.data() + lead, buf.size() - lead});
        r2.add({buf.data() + lead, buf.size() - lead});
        EXPECT_EQ(f2.finish(), r2.finish()) << "lead=" << lead;
    }
}

// ---------------------------------------------------------------------
// IPv6 fragmentation: any payload reassembles through any MTU, in any
// delivery order
// ---------------------------------------------------------------------

struct FragCase
{
    std::uint64_t seed;
    std::uint32_t mtu;
};

class FragProperty : public ::testing::TestWithParam<FragCase>
{};

TEST_P(FragProperty, FragmentsReassembleShuffled)
{
    sim::Random rng(GetParam().seed);
    for (int round = 0; round < 20; ++round) {
        inet::IpDatagram d;
        d.src = *inet::InetAddr::parse("fd00::1");
        d.dst = *inet::InetAddr::parse("fd00::2");
        d.proto = inet::IpProto::Udp;
        const auto n =
            static_cast<std::size_t>(rng.uniformInt(1, 60000));
        d.payload.resize(n);
        for (auto &b : d.payload)
            b = static_cast<std::uint8_t>(rng.next());

        inet::FrameList frames;
        inet::fragmentIpv6(d, GetParam().mtu,
                           static_cast<std::uint32_t>(round), frames);
        // Fisher-Yates shuffle with the deterministic RNG.
        for (std::size_t i = frames.size(); i > 1; --i) {
            const auto j =
                static_cast<std::size_t>(rng.uniformInt(0, i - 1));
            std::swap(frames[i - 1], frames[j]);
        }

        inet::Ipv6Reassembler reass;
        std::optional<inet::IpDatagram> got;
        for (const auto &f : frames) {
            EXPECT_LE(f.size(), GetParam().mtu);
            inet::Ipv6Packet pkt;
            ASSERT_TRUE(parseIpv6(f, pkt));
            auto r = reass.offer(pkt, 0);
            if (r)
                got = std::move(r);
        }
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->payload, d.payload);
        EXPECT_EQ(reass.pending(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    MtuGrid, FragProperty,
    ::testing::Values(FragCase{1, 1280}, FragCase{2, 1500},
                      FragCase{3, 4352}, FragCase{4, 9000},
                      FragCase{5, 16384}));

// ---------------------------------------------------------------------
// ByteFifo behaves exactly like a reference deque under random ops
// ---------------------------------------------------------------------

class ByteFifoProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(ByteFifoProperty, MatchesReferenceModel)
{
    sim::Random rng(GetParam());
    inet::ByteFifo fifo;
    std::deque<std::uint8_t> model;

    for (int op = 0; op < 2000; ++op) {
        const auto kind = rng.uniformInt(0, 3);
        if (kind == 0) { // append
            const auto n =
                static_cast<std::size_t>(rng.uniformInt(0, 300));
            std::vector<std::uint8_t> data(n);
            for (auto &b : data)
                b = static_cast<std::uint8_t>(rng.next());
            fifo.append(data);
            model.insert(model.end(), data.begin(), data.end());
        } else if (kind == 1 && !model.empty()) { // drop
            const auto n = static_cast<std::size_t>(
                rng.uniformInt(0, model.size()));
            fifo.drop(n);
            model.erase(model.begin(),
                        model.begin() +
                            static_cast<std::ptrdiff_t>(n));
        } else if (kind == 2 && !model.empty()) {
            // Sequential segment reads at advancing offsets: the
            // pattern the cached seek cursor is built for.
            const std::size_t seg = 1 +
                static_cast<std::size_t>(rng.uniformInt(0, 63));
            std::size_t off = 0;
            while (off < model.size()) {
                const std::size_t len =
                    std::min(seg, model.size() - off);
                std::vector<std::uint8_t> out(len);
                fifo.copyOut(off, len, out.data());
                for (std::size_t i = 0; i < len; ++i)
                    ASSERT_EQ(out[i], model[off + i]);
                off += len;
            }
        } else if (!model.empty()) { // random copyOut
            const auto off = static_cast<std::size_t>(
                rng.uniformInt(0, model.size() - 1));
            const auto len = static_cast<std::size_t>(
                rng.uniformInt(0, model.size() - off));
            std::vector<std::uint8_t> out(len);
            fifo.copyOut(off, len, out.data());
            for (std::size_t i = 0; i < len; ++i)
                ASSERT_EQ(out[i], model[off + i]);
        }
        ASSERT_EQ(fifo.size(), model.size());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ByteFifoProperty,
                         ::testing::Values(11, 22, 33, 44));

// ---------------------------------------------------------------------
// TCP stream integrity under random loss (harness pipe)
// ---------------------------------------------------------------------

struct LossCase
{
    std::uint64_t seed;
    double loss;
};

class TcpLossProperty : public ::testing::TestWithParam<LossCase>
{};

TEST_P(TcpLossProperty, StreamSurvivesRandomLossIntact)
{
    auto cfg = streamConfig();
    cfg.minRto = 10 * sim::oneMs;
    TcpPair p(cfg, cfg, GetParam().seed);
    sim::Random rng(GetParam().seed * 977);
    const double loss = GetParam().loss;
    p.client.txFilter = [&](auto...) { return !rng.bernoulli(loss); };
    p.server.txFilter = [&](auto...) { return !rng.bernoulli(loss); };
    ASSERT_TRUE(p.establish(120 * sim::oneSec));

    std::vector<std::uint8_t> data(60000 +
                                   (GetParam().seed % 7) * 1111);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 31 + GetParam().seed);
    std::size_t sent = 0;
    auto feed = [&] {
        while (sent < data.size()) {
            auto n = p.client.conn().send(
                std::span(data).subspan(sent));
            if (n == 0)
                break;
            sent += n;
        }
    };
    feed();
    for (int i = 0;
         i < 5000 && p.server.received.size() < data.size(); ++i) {
        p.sim.runFor(10 * sim::oneMs);
        feed();
    }
    ASSERT_EQ(p.server.received.size(), data.size());
    EXPECT_EQ(p.server.received, data);
}

INSTANTIATE_TEST_SUITE_P(
    LossGrid, TcpLossProperty,
    ::testing::Values(LossCase{1, 0.0}, LossCase{2, 0.02},
                      LossCase{3, 0.05}, LossCase{4, 0.10},
                      LossCase{5, 0.02}, LossCase{6, 0.05}));

// ---------------------------------------------------------------------
// Incast bursts over the fixed-radix fat-tree
// ---------------------------------------------------------------------

struct IncastCase
{
    std::uint64_t seed;
    int threads;
};

class IncastProperty : public ::testing::TestWithParam<IncastCase>
{};

TEST_P(IncastProperty, BurstDeliversEveryByteThroughCongestion)
{
    // 32 hosts on the k=8 tree: every other host bursts at host 0
    // concurrently, oversubscribing its last-hop link. The property:
    // however contended, every pair's payload lands in full, serial
    // or partitioned alike.
    apps::SocketsTestbed bed(32, apps::SocketsFabric::GigabitEthernet,
                             GetParam().seed, host::HostCostModel{},
                             apps::FabricTopology::FatTreeK8);
    bed.enableParallel(GetParam().threads);
    const auto pairs = apps::incastPairs(32, 0);
    const auto r = apps::runSocketsTtcpPairs(bed, pairs, 16 * 1024);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.pairsCompleted, pairs.size());
    EXPECT_GT(r.aggMbPerSec, 0.0);
    // The destination's NIC really funneled the whole burst, across
    // partition boundaries.
    EXPECT_GT(bed.sim().stats().counterValue("host0.nic.rxPackets"),
              static_cast<std::uint64_t>(pairs.size()));
    EXPECT_GT(bed.engine()->numPartitions(), 1u);
    EXPECT_GT(bed.sim().stats().counterValue("parallel.mailboxPosts"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Bursts, IncastProperty,
                         ::testing::Values(IncastCase{101, 1},
                                           IncastCase{101, 4},
                                           IncastCase{202, 4},
                                           IncastCase{303, 2}));

// ---------------------------------------------------------------------
// QPIP end-to-end message integrity across MTUs and sizes
// ---------------------------------------------------------------------

struct QpipCase
{
    std::uint64_t seed;
    std::uint32_t mtu;
};

class QpipMsgProperty : public ::testing::TestWithParam<QpipCase>
{};

TEST_P(QpipMsgProperty, MessagesArriveIntactAndInOrder)
{
    apps::QpipTestbed bed(2, GetParam().mtu, GetParam().seed);
    auto &sim = bed.sim();
    sim::Random rng(GetParam().seed * 31);

    constexpr std::size_t nMsgs = 12;
    constexpr std::size_t maxBytes = 40000;

    auto cq0 = bed.provider(0).createCq();
    auto cq1 = bed.provider(1).createCq();
    std::vector<std::uint8_t> sbuf(maxBytes), rbuf(maxBytes);
    auto mr0 = bed.provider(0).registerMemory(sbuf);
    auto mr1 = bed.provider(1).registerMemory(rbuf);

    verbs::Acceptor acc(bed.provider(1), 7, cq1, cq1);
    std::shared_ptr<verbs::QueuePair> rqp;
    acc.acceptOne([&](std::shared_ptr<verbs::QueuePair> q) {
        rqp = q;
        q->postRecv(1, *mr1, 0, maxBytes);
    });
    auto sqp =
        bed.provider(0).createQp(nic::QpType::ReliableTcp, cq0, cq0);
    bool connected = false;
    sqp->connect(bed.addr(1, 7), [&](bool ok) { connected = ok; });
    ASSERT_TRUE(sim.runUntilCondition(
        [&] { return connected && rqp != nullptr; },
        sim.now() + 30 * sim::oneSec));

    // Strictly serial: fill the (single) send buffer per message.
    std::size_t verified = 0;
    bool mismatch = false;
    std::vector<std::size_t> sizes;
    for (std::size_t m = 0; m < nMsgs; ++m)
        sizes.push_back(
            static_cast<std::size_t>(rng.uniformInt(1, maxBytes)));

    std::size_t in_flight_msg = 0;
    auto send_next = [&] {
        if (in_flight_msg >= nMsgs)
            return;
        for (std::size_t i = 0; i < sizes[in_flight_msg]; ++i)
            sbuf[i] = static_cast<std::uint8_t>(
                i * 7 + in_flight_msg * 13);
        sqp->postSend(in_flight_msg, *mr0, 0, sizes[in_flight_msg]);
        ++in_flight_msg;
    };
    apps::waitLoop(*cq1, [&](verbs::Completion c) {
        if (c.isSend)
            return;
        if (c.byteLen != sizes[verified]) {
            mismatch = true;
        } else {
            for (std::size_t i = 0; i < c.byteLen; ++i) {
                if (rbuf[i] != static_cast<std::uint8_t>(
                                   i * 7 + verified * 13)) {
                    mismatch = true;
                    break;
                }
            }
        }
        ++verified;
        rqp->postRecv(1, *mr1, 0, maxBytes);
    });
    apps::waitLoop(*cq0, [&](verbs::Completion c) {
        if (c.isSend && c.status == verbs::WcStatus::Success)
            send_next();
    });
    send_next();

    ASSERT_TRUE(sim.runUntilCondition(
        [&] { return verified >= nMsgs || mismatch; },
        sim.now() + 120 * sim::oneSec));
    EXPECT_EQ(verified, nMsgs);
    EXPECT_FALSE(mismatch);
}

INSTANTIATE_TEST_SUITE_P(
    MtuSeedGrid, QpipMsgProperty,
    ::testing::Values(QpipCase{1, 1500}, QpipCase{2, 9000},
                      QpipCase{3, apps::qpipNativeMtu},
                      QpipCase{4, 1500}, QpipCase{5, 4000}));

// ---------------------------------------------------------------------
// Fault injector: empirical rates converge to configured
// probabilities, and the per-packet decision invariants hold
// ---------------------------------------------------------------------

struct FaultCase
{
    std::uint64_t seed;
    net::FaultConfig cfg;
};

class FaultInjectorProperty
    : public ::testing::TestWithParam<FaultCase>
{};

TEST_P(FaultInjectorProperty, EmpiricalRatesMatchConfig)
{
    const auto &[seed, cfg] = GetParam();
    sim::Random rng(seed);

    const std::size_t rolls = 20000;
    std::size_t drops = 0, dups = 0, corruptions = 0, reorders = 0;
    const std::vector<std::uint8_t> original(64, 0x5a);
    for (std::size_t i = 0; i < rolls; ++i) {
        net::Packet pkt;
        pkt.data = original;
        const net::FaultDecision d = net::rollFaults(pkt, cfg, rng);

        // A dropped packet is never also duplicated, delayed or
        // mutated: the wire either carried it or it didn't.
        if (d.drop) {
            EXPECT_FALSE(d.corrupt);
            EXPECT_FALSE(d.duplicate);
            EXPECT_EQ(d.extraDelay, 0u);
            EXPECT_EQ(pkt.data, original);
            ++drops;
            continue;
        }
        // The decision reports exactly the corruption it made.
        EXPECT_EQ(d.corrupt, pkt.data != original);
        if (d.corrupt)
            ++corruptions;
        if (d.duplicate)
            ++dups;
        if (d.extraDelay > 0) {
            EXPECT_EQ(d.extraDelay, cfg.reorderDelay);
            ++reorders;
        }
    }

    // Empirical rates within 5 sigma of the configured probability
    // (dup/corrupt/reorder are conditioned on not-dropped).
    auto check_rate = [](std::size_t hits, std::size_t trials,
                         double p, const char *what) {
        if (trials == 0)
            return;
        const double rate =
            static_cast<double>(hits) / static_cast<double>(trials);
        const double sigma =
            std::sqrt(p * (1.0 - p) / static_cast<double>(trials));
        EXPECT_NEAR(rate, p, 5.0 * sigma + 1e-12)
            << what << ": " << hits << "/" << trials;
    };
    check_rate(drops, rolls, cfg.dropProb, "drop");
    const std::size_t delivered = rolls - drops;
    check_rate(corruptions, delivered, cfg.corruptProb, "corrupt");
    check_rate(dups, delivered, cfg.dupProb, "dup");
    check_rate(reorders, delivered, cfg.reorderProb, "reorder");
}

INSTANTIATE_TEST_SUITE_P(
    SeedRateGrid, FaultInjectorProperty,
    ::testing::Values(
        FaultCase{1, {0.1, 0.05, 0.08, 0.12, 20 * sim::oneUs}},
        FaultCase{2, {0.02, 0.01, 0.01, 0.05, 20 * sim::oneUs}},
        FaultCase{3, {0.5, 0.5, 0.5, 0.5, 7 * sim::oneUs}},
        FaultCase{4, {0.0, 0.0, 0.0, 0.0, 20 * sim::oneUs}},
        FaultCase{5, {1.0, 1.0, 1.0, 1.0, 20 * sim::oneUs}},
        FaultCase{6, {0.25, 0.0, 0.9, 0.0, 20 * sim::oneUs}}));

// ---------------------------------------------------------------------
// RDMA under loss: a random serialized mix of Write/Read/Send over a
// lossy fabric must leave both memory regions exactly as a golden
// serial execution on plain arrays would
// ---------------------------------------------------------------------

struct RdmaLossCase
{
    std::uint64_t seed;
    double loss;
};

class RdmaLossProperty : public ::testing::TestWithParam<RdmaLossCase>
{};

TEST_P(RdmaLossProperty, MixedOpsMatchGoldenExecution)
{
    apps::QpipTestbed bed(2, 4000, GetParam().seed);
    for (net::NodeId node = 0; node < 2; ++node) {
        auto &faults = bed.fabric().linkFor(node).faultConfig();
        faults.dropProb = GetParam().loss;
    }
    auto &sim = bed.sim();
    sim::Random rng(GetParam().seed * 131 + 7);

    constexpr std::size_t regionBytes = 1 << 15;
    constexpr std::size_t maxOp = 6000;
    auto cq0 = bed.provider(0).createCq();
    auto cq1 = bed.provider(1).createCq();
    std::vector<std::uint8_t> lbuf(regionBytes), rbuf(regionBytes);
    auto lmr = bed.provider(0).registerMemory(lbuf);
    auto rmr = bed.provider(1).registerMemory(rbuf,
                                             nic::accessRemoteRw);
    // Golden model: the same regions as plain arrays.
    std::vector<std::uint8_t> gold_l(regionBytes), gold_r(regionBytes);

    verbs::QpAttrs attrs;
    attrs.rdmaWindowBytes = 1 << 14;
    verbs::Acceptor acc(bed.provider(1), 7, cq1, cq1);
    std::shared_ptr<verbs::QueuePair> rqp;
    acc.acceptOne([&](std::shared_ptr<verbs::QueuePair> q) {
        rqp = std::move(q);
    }, attrs);
    auto sqp = bed.provider(0).createQp(nic::QpType::ReliableTcp, cq0,
                                        cq0, attrs);
    bool connected = false;
    sqp->connect(bed.addr(1, 7), [&](bool ok) { connected = ok; });
    ASSERT_TRUE(sim.runUntilCondition(
        [&] { return connected && rqp != nullptr; },
        sim.now() + 120 * sim::oneSec));

    constexpr int nOps = 24;
    for (int op = 0; op < nOps; ++op) {
        const auto kind = rng.uniformInt(0, 2);
        const auto len = static_cast<std::size_t>(
            rng.uniformInt(1, maxOp));
        const auto loff = static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::uint64_t>(regionBytes - len)));
        const auto roff = static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::uint64_t>(regionBytes - len)));
        int doneSend = 0, doneRecv = 0;
        int needSend = 1, needRecv = 0;
        verbs::WcStatus sendStatus = verbs::WcStatus::Success;
        if (kind == 0) { // RDMA Write
            for (std::size_t i = 0; i < len; ++i)
                lbuf[loff + i] = static_cast<std::uint8_t>(
                    op * 17 + i * 3 + 1);
            std::copy(lbuf.begin() + loff, lbuf.begin() + loff + len,
                      gold_l.begin() + loff);
            std::copy(gold_l.begin() + loff,
                      gold_l.begin() + loff + len,
                      gold_r.begin() + roff);
            ASSERT_TRUE(sqp->postWrite(op, *lmr, loff, len,
                                       rmr->key(), roff));
        } else if (kind == 1) { // RDMA Read
            std::copy(gold_r.begin() + roff,
                      gold_r.begin() + roff + len,
                      gold_l.begin() + loff);
            ASSERT_TRUE(
                sqp->postRead(op, *lmr, loff, len, rmr->key(), roff));
        } else { // two-sided Send
            needRecv = 1;
            for (std::size_t i = 0; i < len; ++i)
                lbuf[loff + i] = static_cast<std::uint8_t>(
                    op * 29 + i * 5 + 2);
            std::copy(lbuf.begin() + loff, lbuf.begin() + loff + len,
                      gold_l.begin() + loff);
            std::copy(gold_l.begin() + loff,
                      gold_l.begin() + loff + len,
                      gold_r.begin() + roff);
            ASSERT_TRUE(rqp->postRecv(op, *rmr, roff, len));
            ASSERT_TRUE(sqp->postSend(op, *lmr, loff, len));
        }
        // Serialized: drain this op's completions before the next.
        ASSERT_TRUE(sim.runUntilCondition(
            [&] {
                verbs::Completion c;
                while (cq0->poll(c)) {
                    ++doneSend;
                    sendStatus = c.status;
                }
                while (cq1->poll(c))
                    ++doneRecv;
                return doneSend >= needSend && doneRecv >= needRecv;
            },
            sim.now() + 600 * sim::oneSec))
            << "op " << op << " stalled";
        ASSERT_EQ(sendStatus, verbs::WcStatus::Success)
            << "op " << op;
    }

    EXPECT_EQ(lbuf, gold_l);
    EXPECT_EQ(rbuf, gold_r);
}

INSTANTIATE_TEST_SUITE_P(
    SeedLossGrid, RdmaLossProperty,
    ::testing::Values(RdmaLossCase{1, 0.0}, RdmaLossCase{2, 0.02},
                      RdmaLossCase{3, 0.05}, RdmaLossCase{4, 0.02},
                      RdmaLossCase{5, 0.05}));

// ---------------------------------------------------------------------
// RUD under loss: a pipelined burst of reliable datagrams over a
// lossy fabric must arrive intact, in order, exactly once — matching
// a golden serial execution — with every send acked eventually
// ---------------------------------------------------------------------

struct RudLossCase
{
    std::uint64_t seed;
    double loss;
};

class RudLossProperty : public ::testing::TestWithParam<RudLossCase>
{};

TEST_P(RudLossProperty, DatagramsArriveIntactInOrderUnderLoss)
{
    apps::QpipTestbed bed(2, 4000, GetParam().seed);
    for (net::NodeId node = 0; node < 2; ++node) {
        auto &faults = bed.fabric().linkFor(node).faultConfig();
        faults.dropProb = GetParam().loss;
    }
    auto &sim = bed.sim();
    sim::Random rng(GetParam().seed * 977 + 3);

    constexpr int nMsgs = 24;
    constexpr std::size_t slot = 4096;
    constexpr std::size_t maxLen = 3000; // a few IP fragments at most
    auto scq = bed.provider(1).createCq();
    auto ccq = bed.provider(0).createCq();
    std::vector<std::uint8_t> sbuf(nMsgs * slot), rbuf(nMsgs * slot);
    auto smr = bed.provider(0).registerMemory(sbuf);
    auto rmr = bed.provider(1).registerMemory(rbuf);

    auto qs = bed.provider(1).createQp(nic::QpType::ReliableDatagram,
                                       scq, scq);
    qs->bind(800);
    auto qc = bed.provider(0).createQp(nic::QpType::ReliableDatagram,
                                       ccq, ccq);
    qc->bind(801);

    // Golden model: the posted payloads, in posted order.
    std::vector<std::vector<std::uint8_t>> gold(nMsgs);
    for (int i = 0; i < nMsgs; ++i)
        ASSERT_TRUE(qs->postRecv(100 + i, *rmr, i * slot, slot));
    for (int i = 0; i < nMsgs; ++i) {
        const auto len =
            static_cast<std::size_t>(rng.uniformInt(1, maxLen));
        gold[i].resize(len);
        for (std::size_t b = 0; b < len; ++b)
            gold[i][b] =
                static_cast<std::uint8_t>(i * 37 + b * 11 + 5);
        std::copy(gold[i].begin(), gold[i].end(),
                  sbuf.begin() + i * slot);
        ASSERT_TRUE(
            qc->postSend(i, *smr, i * slot, len, bed.addr(1, 800)));
    }

    // Pipelined: everything is in flight at once; loss recovery is
    // the sender's retransmit timer (5 ms base RTO, backoff-bounded).
    std::vector<verbs::Completion> recvs;
    int sendsDone = 0;
    ASSERT_TRUE(sim.runUntilCondition(
        [&] {
            verbs::Completion c;
            while (scq->poll(c)) {
                if (!c.isSend)
                    recvs.push_back(c);
            }
            while (ccq->poll(c)) {
                if (c.isSend) {
                    EXPECT_EQ(c.status, verbs::WcStatus::Success);
                    ++sendsDone;
                }
            }
            return recvs.size() ==
                       static_cast<std::size_t>(nMsgs) &&
                   sendsDone == nMsgs;
        },
        sim.now() + 600 * sim::oneSec))
        << "delivered " << recvs.size() << "/" << nMsgs << ", acked "
        << sendsDone << "/" << nMsgs;

    // Exact-once in-order delivery: recv WRs drained in ring order,
    // one message per WR, payloads byte-identical to the golden run.
    for (int i = 0; i < nMsgs; ++i) {
        EXPECT_EQ(recvs[i].wrId, 100u + i);
        EXPECT_EQ(recvs[i].status, verbs::WcStatus::Success);
        EXPECT_EQ(recvs[i].byteLen, gold[i].size()) << "msg " << i;
        EXPECT_TRUE(std::equal(gold[i].begin(), gold[i].end(),
                               rbuf.begin() + i * slot))
            << "msg " << i;
        EXPECT_EQ(recvs[i].from, bed.addr(0, 801));
    }
    if (GetParam().loss == 0.0) {
        EXPECT_EQ(bed.nicOf(0).rudRetransmits.value(), 0u);
        EXPECT_EQ(bed.nicOf(1).rudSeqDrops.value(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    SeedLossGrid, RudLossProperty,
    ::testing::Values(RudLossCase{1, 0.0}, RudLossCase{2, 0.02},
                      RudLossCase{3, 0.05}, RudLossCase{4, 0.1},
                      RudLossCase{5, 0.05}));
