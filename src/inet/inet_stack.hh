/**
 * @file
 * The shared inter-network protocol engine — the paper's central
 * claim made structural: *one* TCP/UDP/IP implementation that runs in
 * two execution contexts, the host kernel (HostStack) and the LANai
 * firmware (QpipNic). The engine owns everything that used to be
 * duplicated across those two datapaths:
 *
 *   - IPv4 + IPv6 output with end-to-end fragmentation and the
 *     ident/frag-ident counters;
 *   - receive-side parse, reassembly and protocol dispatch;
 *   - the UDP port table and the TCP PCB (four-tuple) table;
 *   - the drop/demux counters.
 *
 * Everything context-specific — what a cycle costs, where frames go,
 * how time and timers work, who accepts a new connection — is pushed
 * through the InetEnv interface. The engine itself charges nothing:
 * each cost hook is a no-op by default, and the two adapters map the
 * hooks onto HostCostModel charges or FirmwareCostModel stage
 * charges, which is what keeps the paper's Tables 2/3 occupancy
 * numbers identical whichever context the engine runs in.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "inet/ip_frag.hh"
#include "inet/pcb_table.hh"
#include "inet/route.hh"
#include "inet/tcp_conn.hh"
#include "net/packet.hh"
#include "sim/stats.hh"

namespace qpip::inet {

/** Outcome of handing a datagram to InetStack::ipOutput. */
enum class IpSendResult {
    Ok,
    /** No transmit path (no NIC attached). */
    NoLink,
    /** No neighbor entry for the destination. */
    NoRoute,
    /** EMSGSIZE: exceeds the family's datagram limit. */
    MsgSize,
};

/**
 * A bound UDP receiver: the engine's port table maps ports to these.
 * Host UdpSockets and NIC unreliable-QP contexts both implement it.
 */
class UdpEndpoint
{
  public:
    virtual ~UdpEndpoint() = default;

    /** One datagram payload arrived for this port. */
    virtual void udpDeliver(std::vector<std::uint8_t> &&payload,
                            const SockAddr &from) = 0;
};

/**
 * The execution context an InetStack runs in. Generalizes TcpEnv:
 * runtime services (time, timers, randomness, tracing) plus the wire
 * transmit path and the per-stage cost hooks that make host-kernel
 * cycles and firmware stage occupancy pluggable.
 */
class InetEnv
{
  public:
    virtual ~InetEnv() = default;

    // --- runtime services (the TcpEnv subset) -----------------------
    virtual sim::Tick now() = 0;
    virtual sim::EventHandle scheduleTimer(sim::Tick delay,
                                           std::function<void()> fn) = 0;
    virtual std::uint32_t randomIss() = 0;
    virtual sim::Tracer *tracer() { return nullptr; }

    /** Context name for diagnostics. */
    virtual const std::string &inetName() const = 0;

    /**
     * A TCP connection reached Closed and was already removed from
     * the engine's PCB table; release any context-side ownership.
     */
    virtual void connectionClosed(TcpConnection &conn) = 0;

    // --- transmit path ----------------------------------------------
    /**
     * MTU of the egress interface toward @p next_hop, or nullopt when
     * there is no transmit path. Multi-homed contexts (a host with
     * several NICs) resolve the interface per route; the engine always
     * pairs this with a wireTx carrying the same @p next_hop, so the
     * two see one consistent egress decision.
     */
    virtual std::optional<std::uint32_t> txMtu(net::NodeId next_hop) = 0;

    /** Cost of building the IP header (firmware: Build IP Hdr). */
    virtual void chargeIpHeaderTx() {}

    /** Cost of emitting @p extra fragments beyond the first frame. */
    virtual void chargeFragmentsTx(std::size_t extra) { (void)extra; }

    /** Cost of handing frames to the medium (firmware: Send). */
    virtual void chargeMediaSend() {}

    /**
     * Put serialized frames on the wire toward @p dst_node. The list
     * is the engine's: take every frame out of it (move) before
     * returning, and do not send a datagram from inside this call.
     */
    virtual void wireTx(std::span<std::vector<std::uint8_t>> frames,
                        bool ipv6, net::NodeId dst_node) = 0;

    /**
     * A finished TCP segment leaves the engine. The context charges
     * its transmit-side protocol costs (deferred on the host, staged
     * on the firmware) and feeds the datagram back to ipOutput.
     */
    virtual void emitTcpSegment(IpDatagram &&dgram,
                                const TcpSegMeta &meta) = 0;

    // --- receive path -----------------------------------------------
    /** Per-frame cost before parsing (host IP charge / fw checksum). */
    virtual void chargeRxFrame(std::size_t wire_bytes)
    {
        (void)wire_bytes;
    }

    /** Cost after a frame parsed (firmware: IP Parse/Reassembly). */
    virtual void chargeIpParsed(bool fragment) { (void)fragment; }

    /** TCP input cost for a parsed segment. */
    virtual void chargeTcpInput(std::size_t payload_bytes, bool pure_ack)
    {
        (void)payload_bytes;
        (void)pure_ack;
    }

    /** UDP cost charged before the datagram is parsed (firmware). */
    virtual void chargeUdpPreParse() {}

    /** UDP cost charged after the datagram is parsed (host). */
    virtual void chargeUdpInput(std::size_t payload_bytes)
    {
        (void)payload_bytes;
    }

    // --- demux upcalls ----------------------------------------------
    /**
     * A SYN arrived for @p t with no matching connection. Accept it
     * (create a connection, register it, open passive) and return
     * true, or return false to refuse.
     */
    virtual bool tcpAccept(const FourTuple &t, const TcpHeader &syn) = 0;

    /**
     * A non-SYN segment matched nothing (counted as a no-match drop
     * already). Hosts answer with RST; firmware silently drops.
     */
    virtual void tcpRefused(const IpDatagram &dgram, const TcpHeader &hdr,
                            std::span<const std::uint8_t> payload)
    {
        (void)dgram;
        (void)hdr;
        (void)payload;
    }
};

/**
 * The engine. One instance per execution context; also the TcpEnv its
 * TcpConnections run against.
 */
class InetStack : public TcpEnv
{
  public:
    explicit InetStack(InetEnv &env,
                       sim::Tick reass_timeout = 60 * sim::oneSec);

    // --- addressing and routing -------------------------------------
    void addLocalAddress(const InetAddr &addr);
    bool isLocal(const InetAddr &addr) const;
    NeighborTable &routes() { return routes_; }

    // --- transmit ----------------------------------------------------
    /**
     * Emit @p dgram: loopback to local addresses, otherwise fragment
     * to the link MTU (either family) and hand the frames to the
     * context's wire.
     */
    IpSendResult ipOutput(IpDatagram &&dgram);

    /** Largest IP payload the family's wire format can carry. */
    static std::size_t maxIpPayload(const InetAddr &dst);

    // --- receive ------------------------------------------------------
    /** One link frame arrived (after context-side media costs). */
    void wireInput(net::NetProto proto,
                   std::span<const std::uint8_t> bytes);

    /** Dispatch a whole datagram (loopback and reassembled paths). */
    void ipInput(IpDatagram dgram);

    // --- TCP PCB table ------------------------------------------------
    void registerConn(const FourTuple &t, TcpConnection *conn);
    void unregisterConn(const FourTuple &t);

    // --- UDP port table -----------------------------------------------
    /** @return false if the port is already bound. */
    bool bindUdp(std::uint16_t port, UdpEndpoint *ep);
    void unbindUdp(std::uint16_t port);

    // --- TcpEnv (forwarded to the context) ----------------------------
    sim::Tick now() override;
    sim::EventHandle scheduleTimer(sim::Tick delay,
                                   std::function<void()> fn) override;
    void tcpOutput(IpDatagram &&dgram, const TcpSegMeta &meta) override;
    std::uint32_t randomIss() override;
    void connectionClosed(TcpConnection &conn) override;
    sim::Tracer *tracer() override;

    // Counters; the owning context registers them under its own
    // legacy stat names.
    sim::Counter pktsOut;
    sim::Counter loopbackPkts;
    sim::Counter badFrames;
    sim::Counter noMatchDrops;
    sim::Counter msgSizeDrops;

    IpReassembler &reassembler() { return reass_; }

  private:
    void deliverTcp(IpDatagram &dgram);
    void deliverUdp(IpDatagram &dgram);

    InetEnv &env_;
    NeighborTable routes_;
    /** One or two addresses per stack: a scan beats any index. */
    std::vector<InetAddr> localAddrs_;
    PcbTable<TcpConnection> tcp_;
    /** Looked up per datagram, never walked. */
    std::unordered_map<std::uint16_t, UdpEndpoint *> udpPorts_;
    IpReassembler reass_;
    std::uint16_t identCounter_ = 1;
    std::uint32_t fragIdent_ = 1;
    /**
     * The frames of the datagram ipOutput is sending, reused for every
     * datagram; empty whenever ipOutput is not between fragmenting and
     * returning from wireTx.
     */
    FrameList txFrames_;
};

} // namespace qpip::inet
