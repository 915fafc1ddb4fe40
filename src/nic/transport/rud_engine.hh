/**
 * @file
 * The reliable-datagram (RUD) transport engine: reliable, in-order
 * message delivery over the UD datagram path. One RUD QP talks to any
 * number of peers; all reliability state (sequence numbers, unacked
 * windows, retransmit timers, reassembly holds) lives in per-peer
 * records in what models *host* memory, so the QP context the NIC
 * caches stays small and a single context serves thousands of peers
 * without thrashing the context cache. The simulation hangs those
 * records off the QpContext object (QpState below) so a datagram
 * reaches its peer with one hashed lookup; the context cache still
 * counts one block per QP.
 *
 * Wire format (see net/serialize.hh): every datagram carries a
 * RudHeader. Data datagrams are sequenced per (QP, peer) starting at
 * 1 and piggyback a cumulative ack; standalone Ack datagrams carry
 * only the cumulative ack and acknowledge each delivered datagram
 * immediately, so the receive-side cost per datagram is constant
 * regardless of how many peers share the QP — the scale-out curve
 * stays flat. Loss recovery is go-back-N: a single
 * retransmit timer per peer, exponential backoff bounded by the
 * firmware TCP config's [minRto, maxRto].
 */

#pragma once

#include <set>
#include <unordered_map>

#include "nic/transport/ud_engine.hh"
#include "sim/event_queue.hh"
#include "sim/ring_fifo.hh"

namespace qpip::nic {

class RudEngine : public UdEngine
{
  public:
    using UdEngine::UdEngine;

    /** Max unacked Data datagrams per (QP, peer). */
    static constexpr std::size_t windowLimit = 64;

    void transmit(QpipNic::QpContext &qp, SendWr wr,
                  std::vector<std::uint8_t> data) override;
    void datagramDeliver(QpipNic::QpContext &qp,
                         std::vector<std::uint8_t> &&msg,
                         const inet::SockAddr &from) override;
    void recvReplenished(QpipNic::QpContext &qp) override;
    /** 0 while any peer holds data for want of a WR, else never. */
    std::uint64_t replenishThreshold(
        const QpipNic::QpContext &qp) const override;
    void flushed(QpipNic::QpContext &qp, WcStatus status) override;

    // bound()/unbound() inherit the UD engine's port demux plumbing.

    /** A send WR waiting for window space (payload already staged). */
    struct PendingSend
    {
        SendWr wr;
        std::vector<std::uint8_t> data;
    };

    /** An emitted-but-unacked Data datagram (RUD frame retained). */
    struct Unacked
    {
        std::uint32_t seq = 0;
        SendWr wr;
        std::vector<std::uint8_t> frame;
    };

    /** Host-memory reliability record for one (QP, peer) pair. */
    struct Peer
    {
        // Sender side.
        std::uint32_t nextSeq = 1;  ///< next sequence to emit
        std::uint32_t ackedSeq = 0; ///< highest cumulative ack seen
        std::uint32_t rtoShift = 0; ///< backoff exponent
        sim::RingFifo<Unacked> window;
        sim::RingFifo<PendingSend> blocked;
        sim::EventHandle rto;

        // Receiver side.
        std::uint32_t expectedSeq = 1; ///< next in-order sequence
        bool holding = false; ///< in-order data parked: no recv WR
        std::vector<std::uint8_t> held;
    };

    /** One RUD QP's reliability state, held by its QpContext. */
    struct QpState
    {
        /**
         * Per-peer records, hashed by address: every datagram and
         * send looks its peer up. Only flushed() walks them, and it
         * sorts the addresses first.
         */
        std::unordered_map<inet::SockAddr, Peer, inet::SockAddrHash>
            peers;
        /**
         * The peers with Peer::holding set, in address order: a
         * replenish delivers to them in that order, so it stays
         * ordered.
         */
        std::set<inet::SockAddr> holding;
    };

  private:
    void emitData(QpipNic::QpContext &qp, Peer &p, SendWr wr,
                  std::vector<std::uint8_t> data);
    void processAck(QpipNic::QpContext &qp, Peer &p,
                    const inet::SockAddr &from, std::uint32_t ack);
    void sendAck(QpipNic::QpContext &qp, Peer &p,
                 const inet::SockAddr &to);
    void armRto(const QpipNic::QpContext &qp, Peer &p,
                const inet::SockAddr &to);
    void rtoFire(QpNum qp, const inet::SockAddr &to);

    /** Send one Data frame's UDP/IP encapsulation (fresh or retx). */
    void emitFrame(QpipNic::QpContext &qp, const inet::SockAddr &to,
                   const std::vector<std::uint8_t> &frame);
};

} // namespace qpip::nic
