/**
 * @file
 * The NIC-side state of one QP / one SRQ: the doorbell-FSM shadows of
 * the host rings plus the protocol endpoints. These are nested types
 * of QpipNic (they predate the transport-engine split and every
 * engine touches them); the protocol *callbacks* they implement —
 * TcpObserver for the connected service, UdpEndpoint for the
 * datagram ones — immediately delegate the per-service work to the
 * owning NIC's transport engines.
 */

#pragma once

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <utility>

#include "nic/qpip_nic.hh"
#include "nic/transport/rc_engine.hh"
#include "nic/transport/rud_engine.hh"
#include "sim/ring_fifo.hh"

namespace qpip::nic {

/**
 * NIC-side state of one shared receive queue: the doorbell-FSM shadow
 * of the host ring plus the wake index of its attached QPs. SRQ
 * contexts are pinned in SRAM — they are shared infrastructure like
 * the demux table, not per-QP state, so they don't flow through the
 * QP context cache.
 */
struct QpipNic::SrqContext
{
    /** Wake key of a QP no replenish can affect. */
    static constexpr std::uint64_t neverWakes =
        std::numeric_limits<std::uint64_t>::max();

    SrqNum num = invalidSrq;
    SrqHostRing *ring = nullptr;
    std::uint64_t seen = 0;
    std::uint64_t consumed = 0;
    std::uint32_t postedCount = 0;
    std::uint64_t postedBytes = 0;
    /**
     * Every attached QP, keyed by (wake threshold, QP number): a
     * replenish visits the prefix whose threshold — the least
     * postedBytes at which TransportEngine::recvReplenished can act
     * on the QP — postedBytes has reached, and nothing else. QP
     * numbers grow monotonically and QPs attach only at creation, so
     * QP number order is attach order.
     */
    std::map<std::pair<std::uint64_t, QpNum>, QpContext *> wake;
};

struct QpipNic::QpContext : public inet::TcpObserver,
                            public inet::UdpEndpoint
{
    QpContext(QpipNic &nic_ref, QpNum n, QpType t, QpHostRings *r,
              CqNum s, CqNum rc)
        : nic(nic_ref), num(n), type(t), rings(r), scq(s), rcq(rc),
          rud(t == QpType::ReliableDatagram
                  ? std::make_unique<RudEngine::QpState>()
                  : nullptr)
    {}

    QpipNic &nic;
    QpNum num;
    QpType type;
    QpHostRings *rings;
    CqNum scq;
    CqNum rcq;

    /** Receive WRs come from here instead of rings->recvQ when set. */
    SrqContext *srq = nullptr;
    /** This QP's current threshold in srq->wake. */
    std::uint64_t wakeKey = SrqContext::neverWakes;
    /** Non-zero: RDMA framing on, one-sided window in bytes. */
    std::uint32_t rdmaWindow = 0;

    inet::SockAddr local;
    bool bound = false;
    std::unique_ptr<inet::TcpConnection> conn;
    bool connected = false;
    ConnectCb connectDone;
    AcceptCb acceptDone;

    // NIC-side shadow of the host work queues (what the doorbell FSM
    // maintains in the QPIP state table).
    std::uint64_t sendSeen = 0;
    std::uint64_t sendConsumed = 0;
    std::uint64_t recvSeen = 0;
    std::uint64_t recvConsumed = 0;
    std::uint32_t postedRecvCount = 0;
    std::uint64_t postedRecvBytes = 0;

    /** What an unacked TCP message was carrying. */
    enum class TxKind : std::uint8_t {
        Send,    ///< a plain send WR: completes on the TCP ACK
        RdmaReq, ///< Write/ReadReq: completes on the explicit response
        FwResp,  ///< firmware-generated WriteAck/ReadResp: no WR
    };

    struct Inflight
    {
        std::uint64_t tag = 0;
        TxKind kind = TxKind::Send;
        SendWr wr;
    };

    // Sent-but-unacked TCP messages, ACKed in FIFO order.
    sim::RingFifo<Inflight> inflightSends;
    std::uint64_t nextTag = 1;

    // One-sided ops awaiting their response, answered in FIFO order
    // (responses ride the same TCP stream as the requests).
    sim::RingFifo<std::pair<std::uint64_t, SendWr>> pendingRdma;
    std::uint64_t nextRdmaId = 1;

    /**
     * RUD per-peer reliability state (models host memory); only a
     * RUD QP has one, so an RC or UD context does not carry its
     * table and set.
     */
    const std::unique_ptr<RudEngine::QpState> rud;

    bool
    recvWrAvailable() const
    {
        return srq != nullptr ? srq->postedCount > 0
                              : postedRecvCount > 0;
    }

    // --- inet::UdpEndpoint --------------------------------------------
    void
    udpDeliver(std::vector<std::uint8_t> &&msg,
               const inet::SockAddr &from) override
    {
        nic.engineFor(type).datagramDeliver(*this, std::move(msg),
                                            from);
    }

    // --- TcpObserver --------------------------------------------------
    void
    onConnected(inet::TcpConnection &) override
    {
        connected = true;
        if (connectDone) {
            nic.callIfLive(nic.fw_.busyUntil(), num,
                           [cb = std::move(connectDone)] { cb(true); });
        }
        if (acceptDone) {
            nic.callIfLive(nic.fw_.busyUntil(), num,
                           [cb = std::move(acceptDone)] { cb(); });
        }
    }

    bool
    canAcceptMessage(inet::TcpConnection &,
                     std::span<const std::uint8_t> payload) override
    {
        // One-sided ops and responses consume no receive WR: peek the
        // framing opcode and wave anything but a Send through.
        if (rdmaWindow > 0 && !payload.empty() &&
            payload[0] !=
                static_cast<std::uint8_t>(net::RdmaOpcode::Send)) {
            return true;
        }
        const bool avail = recvWrAvailable();
        if (!avail && srq != nullptr)
            nic.srqRnrHolds.inc();
        return avail;
    }

    void
    onMessage(inet::TcpConnection &conn_ref,
              std::vector<std::uint8_t> &&msg) override
    {
        if (rdmaWindow > 0) {
            nic.rcEngine_->handleRdmaMessage(*this, std::move(msg),
                                             conn_ref.tuple().remote);
            return;
        }
        nic.receiveIntoWr(*this, std::move(msg),
                          conn_ref.tuple().remote);
    }

    void
    onMessageAcked(inet::TcpConnection &, std::uint64_t tag) override
    {
        if (inflightSends.empty() || inflightSends.front().tag != tag)
            sim::panic("qp%u: send completion out of order", num);
        Inflight fly = std::move(inflightSends.front());
        inflightSends.pop_front();
        nic.touchQpContext(num);
        // Table 3 "Update" (ACK): WR status + QP state writeback.
        nic.fw_.charge(FwStage::UpdateRx, nic.costs().updateRxAck);
        if (fly.kind != TxKind::Send) {
            // One-sided requests complete on their response;
            // firmware responses carry no WR at all.
            return;
        }
        nic.completeSend(*this, fly.wr, WcStatus::Success,
                         fly.wr.sge.length);
    }

    void
    onPeerClosed(inet::TcpConnection &conn_ref) override
    {
        // A QP channel is torn down as a unit: answer the peer's FIN
        // with our own so the connection fully closes and outstanding
        // WRs flush.
        conn_ref.close();
    }

    void
    onReset(inet::TcpConnection &) override
    {
        connected = false;
        if (connectDone) {
            nic.callIfLive(nic.curTick(), num,
                           [cb = std::move(connectDone)] { cb(false); });
        }
        nic.flushQp(*this, WcStatus::RemoteReset);
    }

    void
    onClosed(inet::TcpConnection &) override
    {
        connected = false;
        nic.flushQp(*this, WcStatus::Flushed);
    }

    std::uint32_t
    receiveWindow(inet::TcpConnection &) override
    {
        // Posted receive-WR bytes (own ring or the shared queue's),
        // plus the standing one-sided window on RDMA-enabled QPs so
        // Write/Read traffic flows with zero WRs posted.
        const std::uint64_t posted =
            srq != nullptr ? srq->postedBytes : postedRecvBytes;
        return static_cast<std::uint32_t>(std::min<std::uint64_t>(
            posted + rdmaWindow, 0xffffffffull));
    }

    void
    onReceiveStateChanged(inet::TcpConnection &) override
    {
        nic.rekeySrqWake(*this);
    }
};

} // namespace qpip::nic
