/**
 * @file
 * Protocol tests for the shared TCP engine over the harness pipe:
 * handshake, option negotiation, stream transfer, Nagle/NODELAY,
 * delayed ACK, loss recovery (RTO and fast retransmit), reassembly,
 * message mode, flow control (zero window + persist probe), teardown
 * and reset handling, header prediction.
 */

#include <gtest/gtest.h>

#include "tcp_harness.hh"

using namespace qpip;
using namespace qpip::test;
using inet::TcpState;
using inet::tcpflags::ack;
using inet::tcpflags::fin;
using inet::tcpflags::syn;

namespace {

std::vector<std::uint8_t>
pattern(std::size_t n, std::uint8_t seed = 0)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(seed + i * 13);
    return v;
}

} // namespace

// ---------------------------------------------------------------------
// Handshake and options
// ---------------------------------------------------------------------

TEST(TcpHandshake, ThreeWayEstablishesBothEnds)
{
    TcpPair p(streamConfig());
    ASSERT_TRUE(p.establish());
    EXPECT_EQ(p.client.conn().state(), TcpState::Established);
    EXPECT_EQ(p.server.conn().state(), TcpState::Established);
    // SYN, SYN|ACK, ACK = 3 segments minimum.
    EXPECT_EQ(p.client.conn().stats().segsOut.value(), 2u); // SYN+ACK
    EXPECT_EQ(p.server.conn().stats().segsOut.value(), 1u); // SYN|ACK
}

TEST(TcpHandshake, SynRetransmitsOnLoss)
{
    TcpPair p(streamConfig());
    int dropped = 0;
    p.client.txFilter = [&](const inet::TcpHeader &hdr, auto, auto) {
        if (hdr.has(syn) && dropped < 2) {
            ++dropped;
            return false;
        }
        return true;
    };
    ASSERT_TRUE(p.establish(30 * sim::oneSec));
    EXPECT_EQ(dropped, 2);
    EXPECT_GE(p.client.conn().stats().retransmits.value(), 2u);
}

TEST(TcpHandshake, LostHandshakeAckIsRepeated)
{
    TcpPair p(streamConfig());
    int dropped = 0;
    p.client.txFilter = [&](const inet::TcpHeader &hdr, auto, auto) {
        if (!hdr.has(syn) && dropped == 0) {
            ++dropped; // the ACK that completes the handshake
            return false;
        }
        return true;
    };
    // The server retransmits its SYN|ACK; the established client must
    // answer it with another ACK, or the server never gets there.
    ASSERT_TRUE(p.establish(30 * sim::oneSec));
    EXPECT_EQ(dropped, 1);
    EXPECT_GE(p.server.conn().stats().retransmits.value(), 1u);
}

TEST(TcpHandshake, GivesUpAfterMaxSynRetries)
{
    auto cfg = streamConfig();
    cfg.maxSynRetries = 2;
    TcpPair p(cfg);
    p.client.txFilter = [](const inet::TcpHeader &hdr, auto, auto) {
        return !hdr.has(syn); // black-hole all SYNs
    };
    p.client.connect();
    p.sim.runUntilCondition([&] { return p.client.reset; },
                            p.sim.now() + 120 * sim::oneSec);
    EXPECT_TRUE(p.client.reset);
    EXPECT_FALSE(p.client.connected);
}

TEST(TcpHandshake, NegotiatesWindowScaleAndTimestamps)
{
    auto cfg = streamConfig();
    cfg.useWindowScale = true;
    cfg.windowScale = 6;
    cfg.useTimestamps = true;
    TcpPair p(cfg);
    p.client.window = 4 << 20; // needs scaling to advertise
    p.server.window = 4 << 20;
    ASSERT_TRUE(p.establish());

    // Transfer something so windows get advertised post-SYN.
    p.client.conn().send(pattern(5000));
    p.sim.runUntilCondition(
        [&] { return p.server.received.size() == 5000; },
        p.sim.now() + sim::oneSec);
    // The peer's advertised window, as seen by the client, can only
    // exceed 64 KB if scaling was applied.
    EXPECT_GT(p.client.conn().sndWnd(), 65535u);
}

TEST(TcpHandshake, ScaleDisabledWhenPeerDoesNotOffer)
{
    auto no_ws = streamConfig();
    no_ws.useWindowScale = false;
    TcpPair p(streamConfig(), no_ws);
    p.client.window = 4 << 20;
    p.server.window = 4 << 20;
    ASSERT_TRUE(p.establish());
    p.client.conn().send(pattern(1000));
    p.sim.runUntilCondition(
        [&] { return p.server.received.size() == 1000; },
        p.sim.now() + sim::oneSec);
    EXPECT_LE(p.client.conn().sndWnd(), 65535u);
}

// ---------------------------------------------------------------------
// Stream transfer
// ---------------------------------------------------------------------

TEST(TcpStream, TransfersBytesIntact)
{
    TcpPair p(streamConfig());
    ASSERT_TRUE(p.establish());
    auto data = pattern(100000);
    std::size_t sent = 0;
    // Feed respecting the send buffer.
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
    for (int i = 0; i < 200 && p.server.received.size() < data.size();
         ++i) {
        p.sim.runFor(5 * sim::oneMs);
        feed();
    }
    ASSERT_EQ(p.server.received.size(), data.size());
    EXPECT_EQ(p.server.received, data);
    EXPECT_EQ(p.client.conn().stats().retransmits.value(), 0u);
}

TEST(TcpStream, SegmentsRespectMss)
{
    TcpPair p(streamConfig());
    ASSERT_TRUE(p.establish());
    std::size_t max_payload = 0;
    p.client.txFilter = [&](auto, std::span<const std::uint8_t> pl,
                            auto) {
        max_payload = std::max(max_payload, pl.size());
        return true;
    };
    p.client.conn().send(pattern(50000));
    p.sim.runFor(100 * sim::oneMs);
    EXPECT_LE(max_payload, 1460u);
    EXPECT_EQ(max_payload, 1460u); // full-size segments for bulk data
}

TEST(TcpStream, NagleCoalescesSmallWrites)
{
    auto cfg = streamConfig();
    cfg.noDelay = false;
    TcpPair p(cfg);
    ASSERT_TRUE(p.establish());
    int data_segments = 0;
    p.client.txFilter = [&](auto, std::span<const std::uint8_t> pl,
                            auto) {
        if (!pl.empty())
            ++data_segments;
        return true;
    };
    // 50 tiny writes in rapid succession: Nagle allows one in-flight
    // small segment; the rest coalesce behind the first ACK.
    for (int i = 0; i < 50; ++i)
        p.client.conn().send(pattern(10));
    p.sim.runFor(50 * sim::oneMs);
    EXPECT_EQ(p.server.received.size(), 500u);
    EXPECT_LE(data_segments, 5);
}

TEST(TcpStream, NoDelaySendsEagerly)
{
    auto cfg = streamConfig();
    cfg.noDelay = true;
    TcpPair p(cfg);
    ASSERT_TRUE(p.establish());
    // With NODELAY each write goes out immediately even while data is
    // outstanding, as long as it empties the buffer.
    p.client.conn().send(pattern(10));
    p.sim.runFor(100 * sim::oneUs); // less than RTT
    p.client.conn().send(pattern(10));
    p.sim.runFor(100 * sim::oneUs);
    EXPECT_GE(p.client.conn().stats().segsOut.value(), 3u);
}

TEST(TcpStream, DelayedAckCoalesces)
{
    auto cfg = streamConfig();
    cfg.delayedAck = true;
    cfg.delAckTimeout = 5 * sim::oneMs;
    TcpPair p(cfg);
    ASSERT_TRUE(p.establish());
    // One small segment: the ACK should wait for the delack timer.
    p.client.conn().send(pattern(100));
    const auto acks_before = p.server.conn().stats().segsOut.value();
    p.sim.runFor(2 * sim::oneMs);
    EXPECT_EQ(p.server.conn().stats().segsOut.value(), acks_before);
    p.sim.runFor(10 * sim::oneMs);
    EXPECT_GT(p.server.conn().stats().segsOut.value(), acks_before);
}

TEST(TcpStream, SendRejectsWhenBufferFull)
{
    auto cfg = streamConfig();
    cfg.sendBufBytes = 4096;
    TcpPair p(cfg);
    ASSERT_TRUE(p.establish());
    p.server.window = 0; // peer advertises nothing
    // Let the window-zero reach the client via the handshake ACK...
    auto big = pattern(10000);
    const auto accepted = p.client.conn().send(big);
    EXPECT_LE(accepted, 4096u);
    EXPECT_EQ(p.client.conn().sendSpace(), 4096u - accepted);
}

// ---------------------------------------------------------------------
// Loss recovery
// ---------------------------------------------------------------------

TEST(TcpLoss, RetransmitsAfterRto)
{
    TcpPair p(streamConfig());
    ASSERT_TRUE(p.establish());
    bool dropped_one = false;
    p.client.txFilter = [&](auto, std::span<const std::uint8_t> pl,
                            auto) {
        if (!pl.empty() && !dropped_one) {
            dropped_one = true;
            return false;
        }
        return true;
    };
    p.client.conn().send(pattern(500));
    p.sim.runUntilCondition(
        [&] { return p.server.received.size() == 500; },
        p.sim.now() + 10 * sim::oneSec);
    EXPECT_EQ(p.server.received.size(), 500u);
    EXPECT_EQ(p.client.conn().stats().timeouts.value(), 1u);
    EXPECT_EQ(p.server.received, pattern(500));
}

TEST(TcpLoss, FastRetransmitOnTripleDupAck)
{
    auto cfg = streamConfig();
    cfg.initialCwndSegs = 8; // enough flight for three dup ACKs
    TcpPair p(cfg);
    ASSERT_TRUE(p.establish());
    // Drop exactly the first data segment; the following segments
    // generate dup ACKs that trigger fast retransmit well before RTO.
    bool dropped_one = false;
    p.client.txFilter = [&](auto, std::span<const std::uint8_t> pl,
                            auto) {
        if (!pl.empty() && !dropped_one) {
            dropped_one = true;
            return false;
        }
        return true;
    };
    p.client.conn().send(pattern(1460 * 8));
    p.sim.runUntilCondition(
        [&] { return p.server.received.size() == 1460u * 8; },
        p.sim.now() + 10 * sim::oneSec);
    EXPECT_EQ(p.server.received.size(), 1460u * 8);
    EXPECT_EQ(p.server.received, pattern(1460 * 8));
    EXPECT_GE(p.client.conn().stats().fastRetransmits.value(), 1u);
    EXPECT_EQ(p.client.conn().stats().timeouts.value(), 0u);
    EXPECT_GE(p.client.conn().stats().dupAcksIn.value(), 3u);
}

TEST(TcpLoss, ReassemblyAvoidsRetransmittingDeliveredData)
{
    auto cfg = streamConfig();
    cfg.initialCwndSegs = 8;
    TcpPair p(cfg);
    ASSERT_TRUE(p.establish());
    bool dropped_one = false;
    p.client.txFilter = [&](auto, std::span<const std::uint8_t> pl,
                            auto) {
        if (!pl.empty() && !dropped_one) {
            dropped_one = true;
            return false;
        }
        return true;
    };
    p.client.conn().send(pattern(1460 * 8));
    p.sim.runUntilCondition(
        [&] { return p.server.received.size() == 1460u * 8; },
        p.sim.now() + 10 * sim::oneSec);
    // Out-of-order segments were buffered, not discarded.
    EXPECT_GE(p.server.conn().stats().oooSegments.value(), 3u);
    EXPECT_EQ(p.server.conn().stats().oooDropped.value(), 0u);
    // Only the dropped segment is retransmitted.
    EXPECT_LE(p.client.conn().stats().retransmits.value(), 2u);
}

TEST(TcpLoss, RtoBacksOffExponentially)
{
    auto cfg = streamConfig();
    cfg.minRto = 10 * sim::oneMs;
    TcpPair p(cfg);
    ASSERT_TRUE(p.establish());
    // Black-hole everything from the client after established.
    p.client.txFilter = [](auto...) { return false; };
    p.client.conn().send(pattern(100));
    p.sim.runFor(200 * sim::oneMs);
    const auto n = p.client.conn().stats().timeouts.value();
    // 10+20+40+80 = 150 ms -> about 4 timeouts in 200 ms; without
    // backoff there would be ~20.
    EXPECT_GE(n, 3u);
    EXPECT_LE(n, 6u);
}

TEST(TcpLoss, AbortsAfterMaxRetries)
{
    auto cfg = streamConfig();
    cfg.minRto = 5 * sim::oneMs;
    cfg.maxRtxRetries = 3;
    TcpPair p(cfg);
    ASSERT_TRUE(p.establish());
    p.client.txFilter = [](auto...) { return false; };
    p.client.conn().send(pattern(100));
    p.sim.runUntilCondition([&] { return p.client.reset; },
                            p.sim.now() + 60 * sim::oneSec);
    EXPECT_TRUE(p.client.reset);
}

TEST(TcpLoss, SurvivesHeavyRandomLoss)
{
    auto cfg = streamConfig();
    cfg.minRto = 10 * sim::oneMs;
    TcpPair p(cfg);
    ASSERT_TRUE(p.establish());
    // Drop every 7th segment in both directions.
    int c1 = 0, c2 = 0;
    p.client.txFilter = [&](auto...) { return ++c1 % 7 != 0; };
    p.server.txFilter = [&](auto...) { return ++c2 % 7 != 0; };
    auto data = pattern(120000);
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
         i < 3000 && p.server.received.size() < data.size(); ++i) {
        p.sim.runFor(10 * sim::oneMs);
        feed();
    }
    ASSERT_EQ(p.server.received.size(), data.size());
    EXPECT_EQ(p.server.received, data);
    EXPECT_GT(p.client.conn().stats().retransmits.value(), 0u);
}

// ---------------------------------------------------------------------
// Message mode (the QPIP discipline)
// ---------------------------------------------------------------------

TEST(TcpMessage, OneMessageOneSegment)
{
    TcpPair p(messageConfig());
    ASSERT_TRUE(p.establish());
    std::vector<std::size_t> seg_sizes;
    p.client.txFilter = [&](auto, std::span<const std::uint8_t> pl,
                            auto) {
        if (!pl.empty())
            seg_sizes.push_back(pl.size());
        return true;
    };
    p.client.conn().sendMessage(pattern(777), 1);
    p.client.conn().sendMessage(pattern(12345), 2);
    p.sim.runUntilCondition(
        [&] { return p.server.messages.size() == 2; },
        p.sim.now() + sim::oneSec);
    ASSERT_EQ(p.server.messages.size(), 2u);
    EXPECT_EQ(p.server.messages[0], pattern(777));
    EXPECT_EQ(p.server.messages[1], pattern(12345));
    ASSERT_EQ(seg_sizes.size(), 2u);
    EXPECT_EQ(seg_sizes[0], 777u);
    EXPECT_EQ(seg_sizes[1], 12345u);
}

TEST(TcpMessage, CompletionsSignaledOnAck)
{
    TcpPair p(messageConfig());
    ASSERT_TRUE(p.establish());
    p.client.conn().sendMessage(pattern(100), 42);
    EXPECT_TRUE(p.client.ackedTags.empty()); // not before the RTT
    p.sim.runUntilCondition(
        [&] { return !p.client.ackedTags.empty(); },
        p.sim.now() + sim::oneSec);
    ASSERT_EQ(p.client.ackedTags.size(), 1u);
    EXPECT_EQ(p.client.ackedTags[0], 42u);
}

TEST(TcpMessage, CompletionsInPostingOrder)
{
    TcpPair p(messageConfig());
    ASSERT_TRUE(p.establish());
    for (std::uint64_t t = 1; t <= 20; ++t)
        p.client.conn().sendMessage(pattern(64, t), t);
    p.sim.runUntilCondition(
        [&] { return p.client.ackedTags.size() == 20; },
        p.sim.now() + 10 * sim::oneSec);
    ASSERT_EQ(p.client.ackedTags.size(), 20u);
    for (std::uint64_t t = 1; t <= 20; ++t)
        EXPECT_EQ(p.client.ackedTags[t - 1], t);
}

TEST(TcpMessage, HeldWhenNoBufferPostedThenDelivered)
{
    TcpPair p(messageConfig());
    ASSERT_TRUE(p.establish());
    p.server.acceptMessages = false;
    p.client.conn().sendMessage(pattern(200), 7);
    p.sim.runFor(50 * sim::oneMs);
    EXPECT_TRUE(p.server.messages.empty());
    EXPECT_TRUE(p.client.ackedTags.empty()); // never ACKed while held
    EXPECT_GE(p.server.conn().stats().msgRefused.value(), 1u);

    // Application posts a buffer.
    p.server.acceptMessages = true;
    p.server.conn().onReceiveWindowGrew();
    p.sim.runUntilCondition(
        [&] { return !p.client.ackedTags.empty(); },
        p.sim.now() + 10 * sim::oneSec);
    ASSERT_EQ(p.server.messages.size(), 1u);
    EXPECT_EQ(p.server.messages[0], pattern(200));
}

TEST(TcpMessage, OutOfOrderSegmentsDroppedAndRecovered)
{
    TcpPair p(messageConfig());
    ASSERT_TRUE(p.establish());
    bool dropped_one = false;
    p.client.txFilter = [&](auto, std::span<const std::uint8_t> pl,
                            auto) {
        if (!pl.empty() && !dropped_one) {
            dropped_one = true;
            return false;
        }
        return true;
    };
    for (std::uint64_t t = 1; t <= 5; ++t)
        p.client.conn().sendMessage(pattern(300, t), t);
    p.sim.runUntilCondition(
        [&] { return p.server.messages.size() == 5; },
        p.sim.now() + 30 * sim::oneSec);
    ASSERT_EQ(p.server.messages.size(), 5u);
    for (std::uint64_t t = 1; t <= 5; ++t)
        EXPECT_EQ(p.server.messages[t - 1], pattern(300, t));
    // No reassembly in the firmware subset: later segments were
    // dropped and retransmitted.
    EXPECT_GT(p.server.conn().stats().oooDropped.value(), 0u);
}

TEST(TcpMessage, LargeMessageBlocksUntilWindowOpens)
{
    TcpPair p(messageConfig());
    p.server.window = 1000; // small posted buffer
    ASSERT_TRUE(p.establish());
    p.client.conn().sendMessage(pattern(8000), 9);
    p.sim.runFor(20 * sim::oneMs);
    EXPECT_TRUE(p.server.messages.empty()); // doesn't fit the window
    p.server.window = 64 * 1024;
    p.server.conn().onReceiveWindowGrew();
    p.sim.runUntilCondition(
        [&] { return p.server.messages.size() == 1; },
        p.sim.now() + 10 * sim::oneSec);
    ASSERT_EQ(p.server.messages.size(), 1u);
    EXPECT_EQ(p.server.messages[0].size(), 8000u);
}

// ---------------------------------------------------------------------
// Flow control
// ---------------------------------------------------------------------

TEST(TcpFlow, ZeroWindowStallsAndPersistProbes)
{
    auto cfg = streamConfig();
    cfg.persistInterval = 10 * sim::oneMs;
    TcpPair p(cfg);
    // The server is an application that never reads from a 2 kB
    // buffer: once 2 kB are delivered the window is gone.
    p.server.window = 2048;
    p.server.windowTracksBuffer = true;
    ASSERT_TRUE(p.establish());
    p.client.conn().send(pattern(8000));
    p.sim.runFor(200 * sim::oneMs);
    // Only the advertised window's worth arrives; probes keep the
    // connection alive while it is closed.
    EXPECT_LE(p.server.received.size(), 2100u);
    EXPECT_GT(p.client.conn().stats().persistProbes.value(), 0u);

    // The application finally "reads everything": window opens.
    p.server.windowTracksBuffer = false;
    p.server.window = 1 << 20;
    p.server.conn().onReceiveWindowGrew();
    p.sim.runUntilCondition(
        [&] { return p.server.received.size() == 8000; },
        p.sim.now() + 10 * sim::oneSec);
    EXPECT_EQ(p.server.received.size(), 8000u);
    EXPECT_EQ(p.server.received, pattern(8000));
}

TEST(TcpFlow, CongestionWindowGrowsOnAcks)
{
    TcpPair p(streamConfig());
    ASSERT_TRUE(p.establish());
    const auto cwnd0 = p.client.conn().cwndBytes();
    auto data = pattern(200000);
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
    for (int i = 0; i < 100 && p.server.received.size() < data.size();
         ++i) {
        p.sim.runFor(5 * sim::oneMs);
        feed();
    }
    EXPECT_GT(p.client.conn().cwndBytes(), cwnd0);
}

TEST(TcpFlow, LossHalvesCongestionWindow)
{
    TcpPair p(streamConfig());
    ASSERT_TRUE(p.establish());
    auto data = pattern(4 << 20);
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
    // Let cwnd open up, but stop while the transfer is in full swing
    // (the pipe is latency-only, so this happens within a few RTTs).
    for (int i = 0; i < 200 && p.client.conn().cwndBytes() < 30000;
         ++i) {
        p.sim.runFor(100 * sim::oneUs);
        feed();
    }
    const auto cwnd_before = p.client.conn().cwndBytes();
    ASSERT_GT(cwnd_before, 20000u);
    ASSERT_LT(p.server.received.size(), data.size() / 2);
    bool dropped = false;
    p.client.txFilter = [&](auto, std::span<const std::uint8_t> pl,
                            auto) {
        if (!pl.empty() && !dropped) {
            dropped = true;
            return false;
        }
        return true;
    };
    // Stop as soon as the fast retransmit fires, before congestion
    // avoidance has time to regrow the window.
    for (int i = 0; i < 100; ++i) {
        p.sim.runFor(100 * sim::oneUs);
        feed();
        if (p.client.conn().stats().fastRetransmits.value() > 0)
            break;
    }
    ASSERT_TRUE(dropped);
    ASSERT_GE(p.client.conn().stats().fastRetransmits.value(), 1u);
    p.sim.runFor(300 * sim::oneUs); // let recovery complete (~3 RTT)
    EXPECT_LT(p.client.conn().cwndBytes(), cwnd_before);
    EXPECT_LE(p.client.conn().cwndBytes(),
              cwnd_before / 2 + 12 * 1460);
}

// ---------------------------------------------------------------------
// Teardown
// ---------------------------------------------------------------------

TEST(TcpClose, GracefulFinExchange)
{
    TcpPair p(streamConfig());
    ASSERT_TRUE(p.establish());
    p.client.conn().close();
    p.sim.runUntilCondition([&] { return p.server.peerClosed; },
                            p.sim.now() + sim::oneSec);
    EXPECT_TRUE(p.server.peerClosed);
    EXPECT_EQ(p.server.conn().state(), TcpState::CloseWait);
    p.server.conn().close();
    p.sim.runUntilCondition(
        [&] { return p.server.closed && p.client.closed; },
        p.sim.now() + 10 * sim::oneSec);
    EXPECT_TRUE(p.client.closed);
    EXPECT_TRUE(p.server.closed);
    EXPECT_EQ(p.client.conn().state(), TcpState::Closed);
    EXPECT_EQ(p.server.conn().state(), TcpState::Closed);
    EXPECT_FALSE(p.client.reset);
}

TEST(TcpClose, FinAfterQueuedDataDrains)
{
    TcpPair p(streamConfig());
    ASSERT_TRUE(p.establish());
    auto data = pattern(20000);
    p.client.conn().send(data);
    p.client.conn().close(); // close with data still queued
    p.sim.runUntilCondition([&] { return p.server.peerClosed; },
                            p.sim.now() + 10 * sim::oneSec);
    EXPECT_EQ(p.server.received, data); // everything arrived first
}

TEST(TcpClose, SimultaneousClose)
{
    TcpPair p(streamConfig());
    ASSERT_TRUE(p.establish());
    p.client.conn().close();
    p.server.conn().close();
    p.sim.runUntilCondition(
        [&] { return p.client.closed && p.server.closed; },
        p.sim.now() + 10 * sim::oneSec);
    EXPECT_TRUE(p.client.closed);
    EXPECT_TRUE(p.server.closed);
}

TEST(TcpClose, RetransmitsLostFin)
{
    TcpPair p(streamConfig());
    ASSERT_TRUE(p.establish());
    bool dropped_fin = false;
    p.client.txFilter = [&](const inet::TcpHeader &hdr, auto, auto) {
        if (hdr.has(fin) && !dropped_fin) {
            dropped_fin = true;
            return false;
        }
        return true;
    };
    p.client.conn().close();
    p.sim.runUntilCondition([&] { return p.server.peerClosed; },
                            p.sim.now() + 10 * sim::oneSec);
    EXPECT_TRUE(dropped_fin);
    EXPECT_TRUE(p.server.peerClosed);
}

TEST(TcpClose, AbortSendsRst)
{
    TcpPair p(streamConfig());
    ASSERT_TRUE(p.establish());
    p.client.conn().abort();
    p.sim.runUntilCondition([&] { return p.server.reset; },
                            p.sim.now() + sim::oneSec);
    EXPECT_TRUE(p.server.reset);
    EXPECT_EQ(p.client.conn().state(), TcpState::Closed);
    EXPECT_EQ(p.server.conn().state(), TcpState::Closed);
}

// ---------------------------------------------------------------------
// Header prediction / instrumentation
// ---------------------------------------------------------------------

TEST(TcpPrediction, BulkTransferMostlyPredicted)
{
    TcpPair p(streamConfig());
    ASSERT_TRUE(p.establish());
    auto data = pattern(100000);
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
    for (int i = 0; i < 100 && p.server.received.size() < data.size();
         ++i) {
        p.sim.runFor(5 * sim::oneMs);
        feed();
    }
    ASSERT_EQ(p.server.received.size(), data.size());
    // The receiver should classify the bulk of in-order data segments
    // as header-predicted (the common case the firmware subset is
    // built around).
    const auto predicted =
        p.server.conn().stats().hdrPredicted.value();
    const auto segs = p.server.conn().stats().segsIn.value();
    EXPECT_GT(predicted, segs / 2);
}

TEST(TcpTimestamps, RttEstimatorConverges)
{
    auto cfg = streamConfig();
    cfg.tsGranularity = sim::oneUs;
    cfg.delayedAck = false; // delack would legitimately inflate RTT
    TcpPair p(cfg);
    p.client.oneWayDelay = 100 * sim::oneUs;
    p.server.oneWayDelay = 100 * sim::oneUs;
    ASSERT_TRUE(p.establish());
    for (int i = 0; i < 20; ++i) {
        p.client.conn().send(pattern(100));
        p.sim.runFor(5 * sim::oneMs);
    }
    ASSERT_TRUE(p.client.conn().rtt().hasSample());
    // ~200 us round trip, measured within timestamp granularity.
    EXPECT_NEAR(static_cast<double>(p.client.conn().rtt().srtt()),
                static_cast<double>(200 * sim::oneUs),
                static_cast<double>(60 * sim::oneUs));
}

TEST(TcpTimestamps, RepeatedSynAckEchoesTheRetransmittedSyn)
{
    auto cfg = streamConfig();
    cfg.useTimestamps = true;
    cfg.tsGranularity = sim::oneUs;
    TcpPair p(cfg);
    p.client.oneWayDelay = 100 * sim::oneUs;
    p.server.oneWayDelay = 100 * sim::oneUs;
    int dropped = 0;
    p.server.txFilter = [&](const inet::TcpHeader &hdr, auto, auto) {
        if (hdr.has(syn) && dropped < 2) {
            ++dropped; // the first SYN|ACK and its timed-out repeat
            return false;
        }
        return true;
    };
    // The client's SYN times out and is sent again; the SYN|ACK that
    // answers it must echo the second SYN, so the handshake's RTT
    // sample is one round trip, not the SYN timeout.
    ASSERT_TRUE(p.establish(30 * sim::oneSec));
    EXPECT_EQ(dropped, 2);
    ASSERT_TRUE(p.client.conn().rtt().hasSample());
    EXPECT_LT(p.client.conn().rtt().srtt(), sim::oneMs);
}

TEST(TcpIss, SequenceWrapAroundIsTransparent)
{
    auto cfg = streamConfig();
    TcpPair p(cfg);
    // Start 3 kB below the wrap point so the transfer crosses it.
    p.client.issOverride = 0xffffffff - 3000;
    ASSERT_TRUE(p.establish());
    auto data = pattern(50000);
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
    for (int i = 0; i < 200 && p.server.received.size() < data.size();
         ++i) {
        p.sim.runFor(5 * sim::oneMs);
        feed();
    }
    ASSERT_EQ(p.server.received.size(), data.size());
    EXPECT_EQ(p.server.received, data);
}
