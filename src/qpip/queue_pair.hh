/**
 * @file
 * The queue pair — the logical endpoint of a communication link. Its
 * work queues live in host memory; posting adds a WR and rings the
 * NIC's doorbell. Reliable connected QPs ride a firmware TCP
 * connection (message-per-segment); unreliable QPs map messages
 * one-to-one onto UDP datagrams; reliable-datagram QPs add in-order
 * exactly-once delivery over the datagram path (bind a port, then
 * postSend to any number of peers — the NIC's RUD engine sequences,
 * acks and retransmits per peer).
 */

#pragma once

#include <functional>
#include <memory>
#include <span>

#include "nic/qp_state.hh"
#include "qpip/memory_region.hh"

namespace qpip::nic {
class QpipNic;
} // namespace qpip::nic

namespace qpip::verbs {

class CompletionQueue;
class Provider;
class SharedReceiveQueue;

/**
 * Optional QP creation attributes.
 */
struct QpAttrs
{
    std::size_t maxSendWr = 512;
    std::size_t maxRecvWr = 512;
    /**
     * Draw receive WRs from this SRQ instead of a per-QP ring. The QP
     * keeps the SRQ alive; postRecv() on the QP becomes invalid.
     */
    std::shared_ptr<SharedReceiveQueue> srq;
    /**
     * Non-zero enables one-sided RDMA (postWrite/postRead) on this
     * reliable QP and bounds the largest one-sided message. Both ends
     * of a connection must enable it (it changes the wire framing).
     */
    std::uint32_t rdmaWindowBytes = 0;
};

/**
 * One element of a chained send post (postSendList).
 */
struct SendWrSpec
{
    std::uint64_t wrId = 0;
    const MemoryRegion *mr = nullptr;
    std::size_t offset = 0;
    std::size_t length = 0;
    /** Destination for UD/RUD QPs (ignored on connected QPs). */
    inet::SockAddr remote;
};

/**
 * One element of a chained receive post (postRecvList).
 */
struct RecvWrSpec
{
    std::uint64_t wrId = 0;
    const MemoryRegion *mr = nullptr;
    std::size_t offset = 0;
    std::size_t length = 0;
};

/**
 * One queue pair.
 */
class QueuePair
{
  public:
    using ConnectCb = std::function<void(bool ok)>;

    QueuePair(Provider &provider, nic::QpType type,
              std::shared_ptr<CompletionQueue> scq,
              std::shared_ptr<CompletionQueue> rcq, QpAttrs attrs = {});
    ~QueuePair();

    QueuePair(const QueuePair &) = delete;
    QueuePair &operator=(const QueuePair &) = delete;

    nic::QpNum num() const { return num_; }
    nic::QpType type() const { return type_; }

    /** Bind to a local port (source port / UDP demux). */
    void bind(std::uint16_t port);

    /** Reliable QPs: initiate the TCP rendezvous to @p remote. */
    void connect(const inet::SockAddr &remote, ConnectCb cb);

    /** Graceful disconnect (TCP FIN exchange in the interface). */
    void disconnect();

    /**
     * Post a send WR over [offset, offset+length) of @p mr.
     * @param remote destination, required for unreliable QPs.
     * @return false if the send queue is full.
     */
    bool postSend(std::uint64_t wr_id, const MemoryRegion &mr,
                  std::size_t offset, std::size_t length,
                  const inet::SockAddr &remote = {});

    /**
     * Post a chain of send WRs with a single doorbell ring: the
     * whole list lands in the host ring, then one batch doorbell
     * (wrCount = chain length) announces it, so the NIC pays one
     * DoorbellProcess pass and one Schedule pass for the run.
     * All-or-nothing: @return false (posting nothing) if the chain
     * would not fit in the send queue; true otherwise. An empty
     * chain is a no-op returning true.
     */
    bool postSendList(std::span<const SendWrSpec> wrs);

    /**
     * Post a receive WR identifying where an incoming message lands.
     * Invalid on a QP attached to an SRQ (post to the SRQ instead).
     * @return false if the receive queue is full.
     */
    bool postRecv(std::uint64_t wr_id, const MemoryRegion &mr,
                  std::size_t offset, std::size_t length);

    /**
     * Post a chain of receive WRs with a single doorbell ring.
     * All-or-nothing like postSendList. Invalid on an SRQ-attached
     * QP (use the SRQ's postRecvList).
     */
    bool postRecvList(std::span<const RecvWrSpec> wrs);

    /**
     * Post a one-sided RDMA Write: push [offset, offset+length) of
     * local @p mr into the peer's region named by (@p rkey, @p raddr).
     * The peer's application is not involved and consumes no receive
     * WR. Requires rdmaWindowBytes on both ends.
     * @return false if the send queue is full.
     */
    bool postWrite(std::uint64_t wr_id, const MemoryRegion &mr,
                   std::size_t offset, std::size_t length,
                   nic::MrKey rkey, std::uint64_t raddr);

    /**
     * Post a one-sided RDMA Read: pull @p length bytes from the
     * peer's (@p rkey, @p raddr) into local @p mr at @p offset.
     * @return false if the send queue is full.
     */
    bool postRead(std::uint64_t wr_id, const MemoryRegion &mr,
                  std::size_t offset, std::size_t length,
                  nic::MrKey rkey, std::uint64_t raddr);

    std::size_t sendQueueDepth() const { return rings_.sendQ.size(); }

  private:
    bool postOneSided(std::uint64_t wr_id, nic::WrOpcode opcode,
                      const MemoryRegion &mr, std::size_t offset,
                      std::size_t length, nic::MrKey rkey,
                      std::uint64_t raddr);

    /**
     * Append the @p n WRs that @p wr_at(i) builds to the send ring
     * and ring one doorbell announcing all of them; all or nothing.
     */
    template <typename WrAt>
    bool postSends(std::size_t n, WrAt &&wr_at);

    Provider &provider_;
    nic::QpipNic &nic_;
    /** Expired once the NIC is destroyed (skip teardown calls). */
    std::weak_ptr<void> nicAlive_;
    nic::QpType type_;
    std::shared_ptr<CompletionQueue> scq_;
    std::shared_ptr<CompletionQueue> rcq_;
    std::shared_ptr<SharedReceiveQueue> srq_;
    std::size_t maxSendWr_;
    std::size_t maxRecvWr_;
    std::uint32_t rdmaWindow_;
    nic::QpHostRings rings_;
    nic::QpNum num_ = nic::invalidQp;
};

} // namespace qpip::verbs
