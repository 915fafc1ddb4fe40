/**
 * @file
 * A self-contained harness for TcpConnection protocol tests: two
 * endpoints joined by a fixed-delay pipe. Every segment really is
 * serialized to wire bytes and re-parsed (checksum verified) on
 * delivery, and a per-node txFilter lets tests drop, delay or corrupt
 * specific segments deterministically.
 */

#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "inet/tcp_conn.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace qpip::test {

/**
 * One endpoint: environment + observer + recording.
 */
class TcpTestNode : public inet::TcpEnv, public inet::TcpObserver
{
  public:
    /**
     * @p source keys this node's timers and deliveries. A pair's nodes
     * share one, so their events run in the order they were scheduled.
     */
    TcpTestNode(sim::Simulation &sim, sim::EventSource &source,
                inet::SockAddr addr, inet::TcpConfig cfg)
        : sim_(sim), source_(source), addr_(addr), cfg_(cfg)
    {}

    /** Join two nodes (must be called once, symmetric). */
    static void
    join(TcpTestNode &a, TcpTestNode &b)
    {
        a.peer_ = &b;
        b.peer_ = &a;
    }

    /** Create this node's connection object. */
    inet::TcpConnection &
    makeConnection()
    {
        conn_ = std::make_unique<inet::TcpConnection>(*this, *this,
                                                      cfg_);
        return *conn_;
    }

    /** Active open toward the peer. */
    void
    connect()
    {
        makeConnection();
        conn_->openActive(addr_, peer_->addr_);
    }

    /** Accept the next SYN automatically (passive open). */
    void listen() { listening_ = true; }

    inet::TcpConnection &conn() { return *conn_; }
    bool hasConn() const { return conn_ != nullptr; }
    const inet::SockAddr &addr() const { return addr_; }

    // --- knobs ---------------------------------------------------------
    /** One-way pipe delay toward the peer. */
    sim::Tick oneWayDelay = 50 * sim::oneUs;

    /**
     * Outbound filter: return false to drop the segment. Called with
     * the parsed header for convenience.
     */
    std::function<bool(const inet::TcpHeader &,
                       std::span<const std::uint8_t> payload,
                       const inet::TcpSegMeta &)>
        txFilter;

    /** Receive window to advertise (buffer space). */
    std::uint32_t window = 1 << 20;

    /**
     * When true, the node behaves like an application that never
     * reads: the advertised window is `window` minus everything
     * delivered so far (a sockbuf filling up).
     */
    bool windowTracksBuffer = false;

    /** Message mode: whether a receive buffer is posted. */
    bool acceptMessages = true;

    // --- recorded state -------------------------------------------------
    std::vector<std::uint8_t> received;       ///< stream bytes
    std::vector<std::vector<std::uint8_t>> messages;
    std::vector<std::uint64_t> ackedTags;
    bool connected = false;
    bool peerClosed = false;
    bool closed = false;
    bool reset = false;
    int sendSpaceEvents = 0;
    int segmentsDelivered = 0;

    // --- TcpEnv ----------------------------------------------------------
    sim::Tick now() override { return sim_.now(); }

    sim::EventHandle
    scheduleTimer(sim::Tick delay, std::function<void()> fn) override
    {
        return sim_.eventQueue().schedule(source_.key(sim_.now() + delay),
                                          std::move(fn));
    }

    void
    tcpOutput(inet::IpDatagram &&dgram,
              const inet::TcpSegMeta &meta) override
    {
        // Parse back what the connection serialized (verifies the
        // checksum path end to end).
        inet::TcpHeader hdr;
        std::span<const std::uint8_t> payload;
        ASSERT_OK(parseTcp(dgram.src, dgram.dst, dgram.payload, hdr,
                           payload));
        if (txFilter && !txFilter(hdr, payload, meta))
            return; // dropped by the test script
        TcpTestNode *peer = peer_;
        sim_.eventQueue().schedule(
            source_.key(sim_.now() + oneWayDelay),
            [peer, d = std::move(dgram)] { peer->deliver(d); });
    }

    std::uint32_t
    randomIss() override
    {
        return issOverride;
    }

    void connectionClosed(inet::TcpConnection &) override {}

    /** ISS used for the next open (tests can exercise wraparound). */
    std::uint32_t issOverride = 1000;

    // --- TcpObserver -----------------------------------------------------
    void onConnected(inet::TcpConnection &) override { connected = true; }

    void
    onDataDelivered(inet::TcpConnection &,
                    std::span<const std::uint8_t> data) override
    {
        received.insert(received.end(), data.begin(), data.end());
    }

    bool
    canAcceptMessage(inet::TcpConnection &,
                     std::span<const std::uint8_t>) override
    {
        return acceptMessages;
    }

    void
    onMessage(inet::TcpConnection &,
              std::vector<std::uint8_t> &&msg) override
    {
        messages.push_back(std::move(msg));
    }

    void
    onMessageAcked(inet::TcpConnection &, std::uint64_t tag) override
    {
        ackedTags.push_back(tag);
    }

    void onSendSpace(inet::TcpConnection &) override
    {
        ++sendSpaceEvents;
    }

    void onPeerClosed(inet::TcpConnection &) override
    {
        peerClosed = true;
    }

    void onClosed(inet::TcpConnection &) override { closed = true; }
    void onReset(inet::TcpConnection &) override { reset = true; }

    std::uint32_t receiveWindow(inet::TcpConnection &) override
    {
        if (!windowTracksBuffer)
            return window;
        const auto used = static_cast<std::uint32_t>(
            std::min<std::size_t>(received.size(), window));
        return window - used;
    }

  private:
    static void
    ASSERT_OK(bool ok)
    {
        if (!ok)
            sim::panic("tcp harness: segment failed to parse");
    }

    void
    deliver(const inet::IpDatagram &dgram)
    {
        inet::TcpHeader hdr;
        std::span<const std::uint8_t> payload;
        ASSERT_OK(parseTcp(dgram.src, dgram.dst, dgram.payload, hdr,
                           payload));
        ++segmentsDelivered;
        if (!conn_ && listening_ && hdr.has(inet::tcpflags::syn) &&
            !hdr.has(inet::tcpflags::ack)) {
            makeConnection();
            conn_->openPassive(addr_, peer_->addr_, hdr);
            return;
        }
        if (conn_)
            conn_->segmentArrived(hdr, payload);
    }

    sim::Simulation &sim_;
    sim::EventSource &source_;
    inet::SockAddr addr_;
    inet::TcpConfig cfg_;
    TcpTestNode *peer_ = nullptr;
    std::unique_ptr<inet::TcpConnection> conn_;
    bool listening_ = false;
};

/**
 * A ready-made pair of joined nodes.
 */
struct TcpPair
{
    TcpPair(inet::TcpConfig client_cfg, inet::TcpConfig server_cfg,
            std::uint64_t seed = 1)
        : sim(seed), source(sim.addSource()),
          client(sim, source, clientAddr(), client_cfg),
          server(sim, source, serverAddr(), server_cfg)
    {
        TcpTestNode::join(client, server);
        server.listen();
    }

    explicit TcpPair(inet::TcpConfig cfg) : TcpPair(cfg, cfg) {}

    static inet::SockAddr
    clientAddr()
    {
        return {*inet::InetAddr::parse("fd00::1"), 40000};
    }

    static inet::SockAddr
    serverAddr()
    {
        return {*inet::InetAddr::parse("fd00::2"), 80};
    }

    /** Connect and run until established both sides. */
    bool
    establish(sim::Tick deadline = 10 * sim::oneSec)
    {
        client.connect();
        return sim.runUntilCondition(
            [&] { return client.connected && server.connected; },
            sim.now() + deadline);
    }

    sim::Simulation sim;
    sim::EventSource source;
    TcpTestNode client;
    TcpTestNode server;
};

/** Stream-mode config with SAN-ish timers for fast tests. */
inline inet::TcpConfig
streamConfig()
{
    inet::TcpConfig cfg;
    cfg.mss = 1460;
    cfg.minRto = 20 * sim::oneMs;
    cfg.delAckTimeout = 2 * sim::oneMs;
    cfg.msl = 20 * sim::oneMs;
    return cfg;
}

/** Message-mode (QPIP firmware) config. */
inline inet::TcpConfig
messageConfig()
{
    inet::TcpConfig cfg;
    cfg.messageMode = true;
    cfg.delayedAck = false;
    cfg.noDelay = true;
    cfg.mss = 16384;
    cfg.windowScale = 8;
    cfg.tsGranularity = sim::oneUs;
    cfg.minRto = 10 * sim::oneMs;
    cfg.msl = 20 * sim::oneMs;
    return cfg;
}

} // namespace qpip::test
