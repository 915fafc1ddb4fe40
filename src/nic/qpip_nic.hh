/**
 * @file
 * The QPIP network interface — the paper's core artifact. It
 * implements basic queue pair operations over a subset of TCP, UDP
 * and IP entirely "in the interface": a 133 MHz firmware processor
 * (LanaiProcessor) runs the four logical FSMs of Figure 1,
 *
 *   - the doorbell FSM monitors QP notifications and updates the QP
 *     state table with outstanding-WR counts;
 *   - the management FSM executes privileged commands (QP/CQ create,
 *     memory bindings, connection management);
 *   - the scheduler/transmit FSM services pending send WRs: Get WR,
 *     Get Data (PCI DMA), Build TCP/UDP Hdr, Build IP Hdr, Send,
 *     Update — the stage sequence of Figure 2 and Table 2;
 *   - the receive FSM parses arriving packets: Media Rcv, IP Parse
 *     (incl. reassembly), TCP/UDP Parse, Get WR, Put Data,
 *     Update WR/CQ — Figure 2 and Table 3.
 *
 * The protocol machinery itself is the shared inet::InetStack, run
 * here in its firmware execution context: this class maps the
 * engine's cost hooks onto FirmwareCostModel stage charges. The TCP
 * engine is the shared inet::TcpConnection in message mode (one QP
 * message <-> one TCP segment); end-to-end IP fragmentation (IPv6
 * native, IPv4 via the same engine) carries arbitrary-size segments
 * over the link MTU; the receive window tracks posted receive-buffer
 * bytes. Host interaction is via doorbells (down) and
 * completion-queue DMA writes (up), so host overhead is just the
 * verbs post/poll paths.
 */

#pragma once

#include <map>
#include <memory>
#include <vector>

#include "inet/inet_stack.hh"
#include "inet/tcp_conn.hh"
#include "inet/udp.hh"
#include "net/link.hh"
#include "net/serialize.hh"
#include "nic/doorbell.hh"
#include "nic/dma.hh"
#include "nic/firmware_cost.hh"
#include "nic/lanai.hh"
#include "nic/qp_ctx_cache.hh"
#include "nic/qp_state.hh"
#include "sim/random.hh"
#include "sim/ring_fifo.hh"

namespace qpip::nic {

/** Static configuration of a QPIP NIC. */
struct QpipNicParams
{
    FirmwareCostModel costs = lanai9EmulatedHwChecksum();
    /** Per-direction PCI DMA engine parameters (LANai 9 has two). */
    DmaConfig dma{264e6, sim::oneUs * 5 / 2};
    std::size_t doorbellCap = 1024;
    /** Firmware TCP defaults (messageMode forced). */
    inet::TcpConfig tcp = defaultFirmwareTcpConfig();
    /** Reassembly partial-datagram expiry. */
    sim::Tick reassExpiry = 50 * sim::oneMs;
    /**
     * QP contexts resident in NIC SRAM before eviction (the LANai's
     * 2 MB part holds on the order of a thousand context blocks
     * beside the firmware and staging buffers). At least 1: a
     * workload whose QPs all fit never misses and is charged nothing.
     */
    std::size_t qpCacheCapacity = 1024;
    /**
     * Non-zero: doorbell coalescing window, in LANai cycles. A ring
     * addressed to a queue whose newest doorbell record is still
     * undrained and younger than the window folds into that record
     * (one DoorbellProcess pass covers both) instead of re-entering
     * the FIFO. Zero (default): every ring is its own record, the
     * paper's per-post discipline.
     */
    sim::Cycles doorbellCoalesceCycles = 0;
    /**
     * Completion-event moderation: when > 1, an armed CQ is notified
     * only once this many CQEs have accumulated since the last
     * notification — or cqModerationCycles after the first deferred
     * CQE, whichever comes first. 0 or 1 (default): every CQE
     * notifies immediately, the legacy behavior.
     */
    std::uint32_t cqModerationCount = 0;
    /**
     * Moderation timeout, in LANai cycles: an armed CQ holding
     * deferred CQEs is notified this long after the first one even
     * if the count threshold was never reached. Only meaningful with
     * cqModerationCount > 1.
     */
    sim::Cycles cqModerationCycles = 0;

    static inet::TcpConfig defaultFirmwareTcpConfig();
};

/** Optional QP creation attributes (SRQ attachment, RDMA framing). */
struct QpCreateAttrs
{
    /** Draw receive WRs from this SRQ instead of the QP's own ring. */
    SrqNum srq = invalidSrq;
    /**
     * Non-zero enables RDMA message framing on this (reliable) QP and
     * adds this many bytes of one-sided receive window beyond posted
     * WR bytes. Both endpoints of a connection must enable it.
     */
    std::uint32_t rdmaWindowBytes = 0;
};

class TransportEngine;
class RcEngine;
class UdEngine;
class RudEngine;

/**
 * The QPIP intelligent NIC: InetStack in firmware mode.
 *
 * The common datapath (doorbell intake, scheduler, WR fetch, payload
 * staging, delivery into posted WRs, completion DMA) lives here; the
 * per-service-type tail of each path — wire framing, reliability and
 * the matching firmware stage charges — is delegated to one
 * TransportEngine per QP type (src/nic/transport/): RcEngine for the
 * TCP-backed reliable service, UdEngine for raw datagrams, RudEngine
 * for the reliable-over-UD shim whose per-peer state lives in host
 * memory.
 */
class QpipNic : public sim::SimObject,
                public net::NetReceiver,
                public inet::InetEnv
{
    friend class TransportEngine;
    friend class RcEngine;
    friend class UdEngine;
    friend class RudEngine;

  public:
    using ConnectCb = std::function<void(bool ok)>;
    using AcceptCb = std::function<void()>;

    QpipNic(sim::Simulation &sim, std::string name, net::Link &link,
            net::NodeId node, QpipNicParams params);
    ~QpipNic() override;

    // --- management FSM interface (privileged, via kernel driver) ----
    void setAddress(const inet::InetAddr &addr);
    const inet::InetAddr &address() const { return addr_; }
    inet::NeighborTable &routes() { return inet_.routes(); }

    MrKey registerMemory(std::uint8_t *base, std::size_t bytes,
                         MrAccess access = accessLocal);
    void deregisterMemory(MrKey key);

    /**
     * Register a completion queue whose entries the NIC writes into
     * @p ring (host memory). Charges no firmware time.
     */
    CqNum createCq(CqRing *ring);
    /**
     * Forget a CQ: completions still on their way to it are dropped,
     * and its moderation timer is cancelled.
     */
    void destroyCq(CqNum cq);
    /** Whether @p cq is registered and not yet destroyed. */
    bool hasCq(CqNum cq) const;
    /**
     * Teardown: disarm every live CQ, in creation order, dropping the
     * notify hooks the host armed on them.
     */
    void disarmCqs();

    /**
     * Create a QP whose work queues live in @p rings (host memory)
     * and whose send/receive completions go to CQs @p scq / @p rcq
     * (invalidCq: none).
     */
    QpNum createQp(QpType type, QpHostRings *rings, CqNum scq,
                   CqNum rcq, const QpCreateAttrs &attrs = {});
    void destroyQp(QpNum qp);

    /** Create a shared receive queue backed by host ring @p ring. */
    SrqNum createSrq(SrqHostRing *ring);
    /** Destroy an SRQ. @pre no QP is still attached to it. */
    void destroySrq(SrqNum srq);

    /** Bind the QP to a local port (UDP demux / TCP source port). */
    void bindLocal(QpNum qp, std::uint16_t port);

    /**
     * Active TCP open; @p done fires when established (or failed),
     * unless @p qp was destroyed first.
     */
    void connect(QpNum qp, const inet::SockAddr &remote, ConnectCb done);

    /**
     * Instruct the interface to monitor @p port for incoming
     * connections and mate the next one to idle @p qp. @p done fires
     * when the connection is established, unless @p qp was destroyed
     * first.
     */
    void acceptOn(std::uint16_t port, QpNum qp, AcceptCb done);

    /** Graceful close of a connected QP (TCP FIN exchange). */
    void disconnect(QpNum qp);

    // --- datapath (user-level) ----------------------------------------
    /**
     * Notify the NIC of newly posted WRs (rings a doorbell).
     * @p wr_count is the number of WRs the ring announces — a
     * chained post passes the chain length and pays one doorbell.
     */
    void postDoorbell(QpNum qp, bool is_send,
                      std::uint32_t wr_count = 1);

    /** Notify the NIC of newly posted SRQ receive WRs. */
    void postSrqDoorbell(SrqNum srq, std::uint32_t wr_count = 1);

    // --- NetReceiver ----------------------------------------------------
    void onPacket(net::PacketPtr pkt) override;

    // --- InetEnv (firmware execution context) ---------------------------
    sim::Tick now() override;
    sim::EventHandle scheduleTimer(sim::Tick delay,
                                   std::function<void()> fn) override;
    std::uint32_t randomIss() override;
    sim::Tracer *tracer() override;
    const std::string &inetName() const override;
    void connectionClosed(inet::TcpConnection &conn) override;

    std::optional<std::uint32_t> txMtu(net::NodeId next_hop) override;
    void chargeIpHeaderTx() override;
    void chargeFragmentsTx(std::size_t extra) override;
    void chargeMediaSend() override;
    void wireTx(std::span<std::vector<std::uint8_t>> frames, bool ipv6,
                net::NodeId dst_node) override;
    void emitTcpSegment(inet::IpDatagram &&dgram,
                        const inet::TcpSegMeta &meta) override;

    void chargeRxFrame(std::size_t wire_bytes) override;
    void chargeIpParsed(bool fragment) override;
    void chargeTcpInput(std::size_t payload_bytes,
                        bool pure_ack) override;
    void chargeUdpPreParse() override;

    bool tcpAccept(const inet::FourTuple &t,
                   const inet::TcpHeader &syn) override;

    // --- introspection ---------------------------------------------------
    /**
     * Liveness token: verbs objects hold a weak_ptr and skip their
     * NIC-side teardown when the device object is already gone.
     */
    std::shared_ptr<void> lifeToken() const { return aliveToken_; }

    LanaiProcessor &fw() { return fw_; }
    const FirmwareCostModel &costs() const { return params_.costs; }
    const QpipNicParams &params() const { return params_; }
    inet::TcpConnection *connectionOf(QpNum qp);
    /**
     * Slots allocated by QP @p qp's work queues: its host rings, its
     * in-flight and one-sided queues and, on a RUD QP, every peer's
     * unacked and blocked queues. 0 until the first post.
     */
    std::size_t queueSlots(QpNum qp);
    /** Whether QP @p qp holds RUD per-peer state (RUD QPs only). */
    bool hasRudState(QpNum qp);

    /** The QP context cache (hit/miss/eviction introspection). */
    const QpContextCache &qpCache() const { return qpCache_; }

    /** The doorbell FIFO (ring/coalesce/batch introspection). */
    const DoorbellFifo &doorbells() const { return doorbells_; }

    /** The shared protocol engine (firmware execution context). */
    inet::InetStack &inet() { return inet_; }

    /**
     * NIC-side state of one QP (nic/transport/qp_context.hh). Named
     * publicly so tests can pin its size; only the NIC and its
     * transport engines touch one.
     */
    struct QpContext;

  private:
    struct SrqContext;

    std::shared_ptr<void> aliveToken_ = std::make_shared<int>(0);
    net::Link &link_;
    net::NodeId node_;
    QpipNicParams params_;
    LanaiProcessor fw_;
    DmaEngine dmaIn_;  ///< host -> NIC payload DMA
    DmaEngine dmaOut_; ///< NIC -> host payload DMA
    DoorbellFifo doorbells_;
    MrTable mrs_;
    QpContextCache qpCache_;
    inet::InetStack inet_;
    /** Initial sequence numbers: (seed, name()) stream. */
    sim::Random issRng_;

  public:
    // Stats. The engine's badFrames / noMatchDrops are registered as
    // badPackets / noQpDrops, the firmware's legacy names.
    sim::Counter udpNoWrDrops;
    sim::Counter cqOverflows;
    // One-sided RDMA engine.
    sim::Counter rdmaWrites;
    sim::Counter rdmaReads;
    sim::Counter rdmaRemoteErrors;
    sim::Counter rdmaMalformed;
    // Shared receive queues.
    sim::Counter srqRnrHolds;   ///< messages held: SRQ empty
    sim::Counter srqEmptyDrops; ///< UD datagrams dropped: SRQ empty
    // QP context cache (evictions are counted by the cache itself).
    sim::Counter ctxWritebacks;
    // Reliable-datagram shim.
    sim::Counter rudRetransmits; ///< datagrams re-emitted by the RTO
    sim::Counter rudAcksSent;    ///< standalone (non-piggybacked) acks
    sim::Counter rudSeqDrops;    ///< duplicate / out-of-order data
    sim::Counter rudRnrHolds;    ///< in-order data held: no recv WR
    sim::Counter rudMalformed;   ///< undecodable RUD framing
    // Completion-event moderation.
    sim::Counter cqNotifies;  ///< host notifications delivered
    sim::Counter cqCoalesced; ///< armed-CQ CQEs whose notify deferred

  private:
    // FSM bodies.
    void doorbellDrain();
    /**
     * Queue the scheduler stage for @p qp. A batch doorbell record
     * passes the whole fresh-WR run: one Schedule charge covers it
     * and the service loop walks @p run WRs back to back.
     */
    void scheduleSendService(QpContext &qp, std::uint64_t run = 1);
    void serviceSendWr(QpContext &qp);
    void receiveIntoWr(QpContext &qp, std::vector<std::uint8_t> msg,
                       const inet::SockAddr &from);

    /** The per-service-type datapath tail for @p type. */
    TransportEngine &engineFor(QpType type);

    /**
     * Reference a QP's context in NIC SRAM; on a miss, charge the
     * fetch and the writeback of any context it displaces.
     */
    void touchQpContext(QpNum qp);

    /** Fetch + writeback cycles for one cache miss / install. */
    sim::Cycles ctxMissCycles(const QpContextCache::Touch &t) const;

    /**
     * Push a completion to CQ @p cq at firmware-completion time; it is
     * dropped if the CQ is destroyed by then.
     */
    void pushCompletion(CqNum cq, Completion c);

    /** Complete send WR @p wr of @p qp on its send CQ. */
    void completeSend(QpContext &qp, const SendWr &wr, WcStatus status,
                      std::size_t byte_len = 0);

    /**
     * Deliver a moderated notification to live CQ @p cq if it is
     * still armed with entries pending, and reset its moderation
     * state.
     */
    void cqKick(CqNum cq);

    /**
     * Run @p fn at @p when if QP @p qp still exists then: the host
     * callbacks of connection management.
     */
    template <typename F>
    void
    callIfLive(sim::Tick when, QpNum qp, F &&fn)
    {
        schedule(when, [this, qp, fn = std::forward<F>(fn)]() mutable {
            if (lookupQp(qp) != nullptr)
                fn();
        });
    }

    void flushQp(QpContext &qp, WcStatus status);

    /**
     * Give @p ctx a fresh TCP connection for @p t (replacing any
     * previous one), with its stats registered and its demux entry
     * installed.
     */
    void openConnection(QpContext &ctx, const inet::FourTuple &t);

    /**
     * SRQ replenish: in attach order, hand every attached QP whose
     * wake threshold the posted bytes now reach to its engine's
     * recvReplenished(). No other attached QP could act.
     */
    void replenishSrq(SrqContext &srq);

    /** Move @p qp to its engine's current threshold in the SRQ index. */
    void rekeySrqWake(QpContext &qp);

    QpContext *lookupQp(QpNum qp);

    inet::InetAddr addr_;
    std::uint16_t ephemeralPort_ = 40000;
    QpNum nextQpNum_ = 1;
    SrqNum nextSrqNum_ = 1;
    bool drainActive_ = false;

    // Per-transport engines (constructed in the NIC's constructor,
    // torn down before the members they reference by declaration
    // order).
    std::unique_ptr<RcEngine> rcEngine_;
    std::unique_ptr<UdEngine> udEngine_;
    std::unique_ptr<RudEngine> rudEngine_;

    /**
     * Indexed by QP number. Numbers come from nextQpNum_ and are
     * never reused, so a destroyed QP leaves a null slot behind.
     */
    std::vector<std::unique_ptr<QpContext>> qps_;
    /** Ordered by SRQ number. */
    std::map<SrqNum, std::unique_ptr<SrqContext>> srqs_;

    /** One CQ: the host ring it writes and its moderation state. */
    struct CqSlot
    {
        /** Null once the CQ is destroyed. */
        CqRing *ring = nullptr;
        /** Armed-CQ CQEs accumulated since the last notification. */
        std::uint32_t pending = 0;
        /** The timeout kick for the oldest deferred CQE. */
        sim::EventHandle timer;
    };
    /**
     * Indexed by CQ number. Numbers are the next index and never
     * reused; slot 0 stands for invalidCq and is never live.
     */
    std::vector<CqSlot> cqs_ = std::vector<CqSlot>(1);

    /** Idle QPs parked on each monitored port, in accept order. */
    std::map<std::uint16_t, sim::RingFifo<QpNum>> listeners_;

    /**
     * Frames handed over by wireTx and not yet on the link, oldest
     * first. Each wireTx schedules one event at fw_.busyUntil(), which
     * never decreases, so the events run in the order they were
     * scheduled and each takes its own frames off the front.
     */
    sim::RingFifo<std::vector<std::uint8_t>> txFrames_;
};

} // namespace qpip::nic
