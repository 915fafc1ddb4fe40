/**
 * @file
 * The TCP engine shared by the host-based baseline stacks and the
 * QPIP NIC firmware — mirroring the paper, whose firmware TCP "is
 * based on existing inter-network protocol stacks to shorten
 * development time and ensure correctness".
 *
 * Features (the prototype's subset, per section 4.1):
 *  - 3-way handshake via the standard sockets rendezvous model;
 *  - sliding-window data transfer with RTT estimation, window
 *    management, congestion control (Reno: slow start, congestion
 *    avoidance, fast retransmit/recovery) and flow control;
 *  - RFC 1323 timestamps and window scaling;
 *  - delayed ACK and Nagle (both defeatable — ttcp runs NODELAY);
 *  - header-prediction fast-path classification (Stevens/Wright);
 *  - graceful close (FIN state machine incl. TIME_WAIT) and RST;
 *  - zero-window persist probing (BSD-style garbage-byte probe).
 *
 * Two delivery disciplines:
 *  - *stream mode* (host sockets): byte stream, MSS-sized segments;
 *  - *message mode* (QPIP): one QP message maps one-for-one onto one
 *    TCP segment of arbitrary size (relying on IPv6 end-to-end
 *    fragmentation below); out-of-order segments are not reassembled,
 *    and the receive window is whatever buffer the application has
 *    posted.
 *
 * The engine is environment-agnostic: time, timers, output and ISS
 * randomness come from a TcpEnv, and all policy upcalls (delivery,
 * completion, window sizing) go through a TcpObserver.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "inet/byte_fifo.hh"
#include "inet/ip.hh"
#include "inet/pcb_table.hh"
#include "inet/rtt_estimator.hh"
#include "inet/tcp_header.hh"
#include "inet/tcp_reass.hh"
#include "sim/event_queue.hh"
#include "sim/ring_fifo.hh"
#include "sim/stat_registry.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace qpip::sim {
class Tracer;
} // namespace qpip::sim

namespace qpip::inet {

class TcpConnection;

/** RFC 793 connection states (Listen lives in the owning stack). */
enum class TcpState : std::uint8_t {
    Closed,
    SynSent,
    SynRcvd,
    Established,
    FinWait1,
    FinWait2,
    CloseWait,
    Closing,
    LastAck,
    TimeWait,
};

const char *tcpStateName(TcpState s);

/** Tunables; host and firmware instantiations differ. */
struct TcpConfig
{
    /** Max payload per segment in stream mode. */
    std::uint32_t mss = 1460;
    bool useTimestamps = true;
    bool useWindowScale = true;
    /** Receive window scale shift we advertise. */
    std::uint8_t windowScale = 4;
    /** Timestamp clock granularity (Linux: 1 ms; firmware: 1 us). */
    sim::Tick tsGranularity = sim::oneMs;
    /** Disable Nagle (TCP_NODELAY). */
    bool noDelay = false;
    bool delayedAck = true;
    sim::Tick delAckTimeout = 40 * sim::oneMs;
    /** QPIP message-per-segment discipline; it drops out-of-order
     *  segments (the firmware subset has no reassembly). */
    bool messageMode = false;
    /** Stream-mode send buffer bytes. */
    std::uint32_t sendBufBytes = 256 * 1024;
    sim::Tick minRto = 200 * sim::oneMs;
    sim::Tick maxRto = 60 * sim::oneSec;
    /** TIME_WAIT holds 2*msl. */
    sim::Tick msl = 500 * sim::oneMs;
    /** Initial congestion window in segments. */
    std::uint32_t initialCwndSegs = 2;
    /** Message-mode congestion window cap, in segments. */
    std::uint32_t maxCwndSegs = 128;
    unsigned maxSynRetries = 5;
    unsigned maxRtxRetries = 10;
    sim::Tick persistInterval = 200 * sim::oneMs;
};

/** Classification of an outgoing segment, for NIC/host cost models. */
struct TcpSegMeta
{
    bool pureAck = false;
    bool retransmit = false;
    std::size_t payloadBytes = 0;
    std::uint8_t flags = 0;
};

/**
 * Services the owning stack provides to a connection.
 */
class TcpEnv
{
  public:
    virtual ~TcpEnv() = default;

    virtual sim::Tick now() = 0;

    /** Arm a one-shot timer. */
    virtual sim::EventHandle scheduleTimer(sim::Tick delay,
                                           std::function<void()> fn) = 0;

    /** Hand a finished segment to the IP layer. */
    virtual void tcpOutput(IpDatagram &&dgram, const TcpSegMeta &meta) = 0;

    /** Initial send sequence randomness. */
    virtual std::uint32_t randomIss() = 0;

    /** The connection reached Closed; the stack may reap it. */
    virtual void connectionClosed(TcpConnection &conn) = 0;

    /** Event tracer for state-transition instants; may be null. */
    virtual sim::Tracer *tracer() { return nullptr; }
};

/**
 * Policy/delivery upcalls to the connection's user.
 */
class TcpObserver
{
  public:
    virtual ~TcpObserver() = default;

    /** Handshake completed (either direction). */
    virtual void onConnected(TcpConnection &) {}

    /** Stream mode: in-order bytes arrived. */
    virtual void onDataDelivered(TcpConnection &,
                                 std::span<const std::uint8_t>)
    {}

    /**
     * Message mode: may the connection accept this message right now
     * (is a receive WR posted)? The payload is passed so protocol
     * observers can peek a framing opcode — one-sided RDMA ops are
     * admitted without a posted WR. Refusal drops the segment
     * un-ACKed; the peer retransmits.
     */
    virtual bool canAcceptMessage(TcpConnection &,
                                  std::span<const std::uint8_t>)
    {
        return true;
    }

    /** Message mode: a whole message (one segment) arrived in order. */
    virtual void onMessage(TcpConnection &, std::vector<std::uint8_t> &&)
    {}

    /** Message mode: message @p tag is fully ACKed (WR completes). */
    virtual void onMessageAcked(TcpConnection &, std::uint64_t) {}

    /** Stream mode: send-buffer space became available. */
    virtual void onSendSpace(TcpConnection &) {}

    /** Peer sent FIN (read side hits EOF once data drains). */
    virtual void onPeerClosed(TcpConnection &) {}

    /** Connection fully closed (normal teardown finished). */
    virtual void onClosed(TcpConnection &) {}

    /** Connection reset (by peer or by retry exhaustion). */
    virtual void onReset(TcpConnection &) {}

    /**
     * Receive buffer space to advertise, in bytes: sockbuf space for
     * sockets, total posted receive-WR bytes for QPIP.
     */
    virtual std::uint32_t receiveWindow(TcpConnection &) = 0;

    /**
     * The receive-side state windowGrewThreshold() reads (rcvNxt, the
     * advertised edge, the connection state or the held message)
     * changed. Observers that index connections by that threshold
     * re-key here; everyone else ignores it.
     */
    virtual void onReceiveStateChanged(TcpConnection &) {}
};

/** Counters exposed for tests and the occupancy/ablation benches. */
struct TcpStats
{
    sim::Counter segsOut;
    sim::Counter segsIn;
    sim::Counter bytesOut;
    sim::Counter bytesIn;
    sim::Counter retransmits;
    sim::Counter fastRetransmits;
    sim::Counter timeouts;
    sim::Counter dupAcksIn;
    sim::Counter oooSegments;
    sim::Counter oooDropped;
    sim::Counter hdrPredicted;
    sim::Counter msgRefused;
    sim::Counter persistProbes;
    sim::Counter badSegments;

    /**
     * Publish every counter under "<prefix>.<name>" in @p registry,
     * through one leaf table shared by every connection. The
     * registrations share the connection's lifetime (unregistered when
     * the TcpStats is destroyed).
     */
    void registerIn(sim::StatRegistry &registry, std::string prefix);

    bool registered() const { return group_.bound(); }

  private:
    sim::StatGroup group_;
};

namespace detail {

// Each connection's per-mode state. Defined at namespace scope, not
// nested in TcpConnection, so std::variant sees them as complete,
// default-constructible types inside the class body.

/** One queued message-mode message. */
struct TcpPendingMsg
{
    std::vector<std::uint8_t> data;
    std::uint64_t tag = 0;
    std::uint32_t seqStart = 0;
    bool sent = false;
};

/** Stream mode (host sockets): byte buffers and reassembly. */
struct TcpStreamState
{
    /** Send buffer; its head corresponds to sndUna_. */
    ByteFifo sndBuf;
    /**
     * Reused per-segment copy-out target: emitSegment() consumes the
     * payload span synchronously, so one scratch buffer per
     * connection avoids a zero-initialized allocation per segment.
     */
    std::vector<std::uint8_t> segScratch;
    TcpReassembly reass;
    std::uint64_t rcvOffset = 0; ///< logical stream offset of rcvNxt_
};

/** Message mode (QPIP): one queued message per segment. */
struct TcpMessageState
{
    /** Front is the oldest unacked message. */
    sim::RingFifo<TcpPendingMsg> sendQueue;
    std::size_t firstUnsent = 0;
    /** In-order message retained while no WR was posted. */
    std::vector<std::uint8_t> held;
    bool holding = false;
};

} // namespace detail

/**
 * One TCP connection. It carries only its own mode's state: a
 * stream-mode connection has the send buffer and the reassembly
 * queue, a message-mode one the message queue and the held message.
 */
class TcpConnection
{
  public:
    /**
     * @p config is referred to, not copied: it must outlive the
     * connection and stay unchanged while it lives (the NIC's
     * firmware config, or a copy the socket keeps).
     */
    TcpConnection(TcpEnv &env, TcpObserver &observer,
                  const TcpConfig &config);
    ~TcpConnection();

    TcpConnection(const TcpConnection &) = delete;
    TcpConnection &operator=(const TcpConnection &) = delete;

    /** Start an active open (client side): sends SYN. */
    void openActive(const SockAddr &local, const SockAddr &remote);

    /**
     * Start a passive open (server side) from a received SYN: enters
     * SynRcvd and sends SYN|ACK. The owning stack creates one of
     * these per accepted SYN.
     */
    void openPassive(const SockAddr &local, const SockAddr &remote,
                     const TcpHeader &syn);

    /**
     * Stream mode: queue bytes for transmission.
     * @return bytes accepted (bounded by send-buffer space).
     */
    std::size_t send(std::span<const std::uint8_t> data);

    /** Stream-mode send buffer space remaining. */
    std::size_t sendSpace() const;

    /**
     * Message mode: queue one message; it will travel as exactly one
     * TCP segment. @p tag is returned via onMessageAcked.
     * @pre message is non-empty.
     */
    void sendMessage(std::vector<std::uint8_t> data, std::uint64_t tag);

    /** Graceful close: FIN after queued data. */
    void close();

    /** Hard abort: RST to the peer, immediate Closed. */
    void abort();

    /**
     * A verified segment for this connection arrived from IP.
     */
    void segmentArrived(const TcpHeader &hdr,
                        std::span<const std::uint8_t> payload);

    /**
     * The receive window grew (WRs posted / sockbuf drained). Sends a
     * window update when the growth is significant, and re-delivers
     * any segment retained while the application had no buffer.
     */
    void onReceiveWindowGrew();

    /**
     * The smallest receiveWindow() at which onReceiveWindowGrew()
     * would do anything: 0 while a message is held, otherwise the
     * least window whose edge passes the window-update test; nullopt
     * when no window can make it act (closed, or not in a receiving
     * state). Every change to its inputs is announced through
     * TcpObserver::onReceiveStateChanged().
     */
    std::optional<std::uint32_t> windowGrewThreshold() const;

    TcpState state() const { return state_; }
    bool established() const { return state_ == TcpState::Established; }
    const FourTuple &tuple() const { return tuple_; }
    const TcpConfig &config() const { return cfg_; }
    TcpStats &stats() { return stats_; }

    /** Effective MSS for stream segmentation. */
    std::uint32_t effMss() const;

    /** Peer-advertised (scaled) send window, for tests. */
    std::uint32_t sndWnd() const { return sndWnd_; }
    /** Slots allocated by the send queues: 0 until the first send. */
    std::size_t queueSlots() const;
    std::uint32_t cwndBytes() const { return cwnd_; }
    const RttEstimator &rtt() const { return rtt_; }

  private:
    // --- segment construction -----------------------------------
    struct OutSpec
    {
        std::uint32_t seq = 0;
        std::uint8_t flags = 0;
        std::span<const std::uint8_t> payload;
        bool retransmit = false;
        bool withOptionsForSyn = false;
    };

    void emitSegment(const OutSpec &spec);
    void sendAck();
    void sendRst(std::uint32_t seq, std::uint32_t ack, bool with_ack);
    std::uint32_t currentAdvertiseWindow();
    std::uint32_t tsNow() const;

    // --- send machinery -------------------------------------------
    void trySend(bool force_one = false);
    void trySendStream();
    void trySendMessages();
    void maybeSendFin();
    std::uint32_t usableWindowBytes() const;

    // --- timers -----------------------------------------------------
    void armRtxTimer();
    void cancelRtxTimer();
    void onRtxTimeout();
    void armDelAck();
    void onDelAckTimeout();
    void armPersist();
    void onPersistTimeout();
    void enterTimeWait();

    // --- receive machinery -----------------------------------------
    void processSynSent(const TcpHeader &hdr);
    void processAck(const TcpHeader &hdr, std::size_t payload_len);
    void processData(const TcpHeader &hdr,
                     std::span<const std::uint8_t> payload);
    void processFin(const TcpHeader &hdr,
                    std::size_t delivered_payload);
    void deliverInOrder(std::span<const std::uint8_t> payload);
    void updateSendWindow(const TcpHeader &hdr);
    bool headerPredicted(const TcpHeader &hdr, std::size_t payload_len);
    void scheduleAckAfterData(std::size_t payload_len);

    // --- congestion control ----------------------------------------
    void openCongestionWindow(std::uint32_t acked_bytes);
    void onLossDetected(bool timeout);

    // --- per-mode state ----------------------------------------------
    using PendingMsg = detail::TcpPendingMsg;
    using StreamState = detail::TcpStreamState;
    using MessageState = detail::TcpMessageState;

    StreamState &stream() { return std::get<StreamState>(mode_); }
    const StreamState &
    stream() const
    {
        return std::get<StreamState>(mode_);
    }
    MessageState &msgs() { return std::get<MessageState>(mode_); }
    const MessageState &
    msgs() const
    {
        return std::get<MessageState>(mode_);
    }
    /** A message is retained for want of a WR (message mode only). */
    bool holdingMessage() const;

    void completeAckedMessages();
    void retransmitOldest();

    // --- teardown ----------------------------------------------------
    void toClosed(bool notify_reset);

    /** Move to @p next, emitting a trace instant when tracing is on. */
    void transition(TcpState next);

    /** Announce a windowGrewThreshold() input change to the observer. */
    void receiveStateChanged() { observer_.onReceiveStateChanged(*this); }

    TcpEnv &env_;
    TcpObserver &observer_;
    const TcpConfig &cfg_;
    FourTuple tuple_;
    TcpState state_ = TcpState::Closed;
    TcpStats stats_;

    // Sequence state (RFC 793 names).
    std::uint32_t iss_ = 0, irs_ = 0;
    std::uint32_t sndUna_ = 0, sndNxt_ = 0;
    std::uint32_t sndWnd_ = 0;
    std::uint32_t sndWl1_ = 0, sndWl2_ = 0;
    std::uint32_t sndMaxSeen_ = 0; ///< highest sndNxt ever (for FIN acct)
    std::uint32_t rcvNxt_ = 0;
    std::uint32_t rcvAdvertised_ = 0; ///< right edge last advertised

    // Negotiated options.
    bool tsEnabled_ = false;
    bool wsEnabled_ = false;
    std::uint8_t sndScale_ = 0; ///< applied to peer's window field
    std::uint8_t rcvScale_ = 0; ///< applied to our window field
    std::uint32_t tsRecent_ = 0; ///< TSval to echo
    std::uint32_t peerMss_ = 536;

    // Congestion control (byte-based in stream mode, segment-based in
    // message mode where segment sizes are application-chosen).
    std::uint32_t cwnd_ = 0;
    std::uint32_t ssthresh_ = 0;
    std::uint32_t cwndSegs_ = 0;
    std::uint32_t ssthreshSegs_ = 0;
    std::uint32_t caAccum_ = 0; ///< congestion-avoidance accumulator
    unsigned dupAcks_ = 0;
    bool inRecovery_ = false;
    std::uint32_t recover_ = 0; ///< sndNxt at loss (NewReno)

    // RTT measurement.
    RttEstimator rtt_;
    bool rttTiming_ = false;
    std::uint32_t rttSeq_ = 0;
    sim::Tick rttStamp_ = 0;
    bool retransmittedSinceTiming_ = false;

    /** The state of cfg_.messageMode's discipline, and only that. */
    std::variant<StreamState, MessageState> mode_;

    // Close handshake.
    bool finQueued_ = false;  ///< user asked to close
    bool finSent_ = false;
    std::uint32_t finSeq_ = 0;

    // Timers.
    sim::EventHandle rtxTimer_;
    sim::EventHandle delAckTimer_;
    sim::EventHandle persistTimer_;
    sim::EventHandle timeWaitTimer_;
    unsigned rtxRetries_ = 0;
    std::size_t unackedSegsSinceAck_ = 0;
};

} // namespace qpip::inet
