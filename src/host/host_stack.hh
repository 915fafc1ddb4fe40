/**
 * @file
 * The in-kernel adapter around the shared inet::InetStack engine: the
 * baseline systems' dual-family (IPv4/IPv6) stack with the shared TCP
 * engine in stream mode, UDP, and the sockets demultiplexer. The
 * protocol machinery lives in the engine; this class supplies the
 * kernel execution context — every cost hook charges the host CPU
 * through the HostCostModel, which is where the paper's "host-based
 * nature of these implementations" becomes measurable overhead.
 */

#pragma once

#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "host/host_os.hh"
#include "host/socket.hh"
#include "inet/inet_stack.hh"
#include "net/packet.hh"
#include "sim/random.hh"
#include "sim/sim_object.hh"

namespace qpip::host {

/**
 * Driver-side interface a NIC model exposes to the stack.
 */
class HostNicDriver
{
  public:
    virtual ~HostNicDriver() = default;

    /** Queue a frame for transmission (driver cost already paid). */
    virtual void transmit(net::PacketPtr pkt) = 0;

    virtual std::uint32_t mtu() const = 0;
    virtual net::NodeId nodeId() const = 0;

    /** True if the NIC checksums TCP/UDP payloads in hardware. */
    virtual bool checksumOffload() const = 0;
};

/**
 * The host kernel network stack: InetStack in kernel mode.
 */
class HostStack : public sim::SimObject, public inet::InetEnv
{
  public:
    using AcceptCb = std::function<void(std::shared_ptr<TcpSocket>)>;

    HostStack(sim::Simulation &sim, std::string name, HostOS &os);
    ~HostStack() override;

    /**
     * Attach an interface. The first NIC attached is the primary
     * (default egress and the source of MSS-deriving MTU); additional
     * NICs are reached per route via setEgress.
     */
    void attachNic(HostNicDriver &nic);

    /**
     * Pin the egress interface for traffic routed to fabric node
     * @p dst_node — the multi-homed host's per-route output-interface
     * decision. Unpinned routes use the primary NIC.
     */
    void setEgress(net::NodeId dst_node, HostNicDriver &nic);

    /** The egress NIC for @p dst_node (primary unless pinned). */
    HostNicDriver *egressFor(net::NodeId dst_node) const;

    /** The first-attached NIC, or nullptr before attachNic. */
    HostNicDriver *
    primaryNic() const
    {
        return nics_.empty() ? nullptr : nics_.front();
    }

    /** Register a local interface address. */
    void addAddress(const inet::InetAddr &addr);
    bool isLocal(const inet::InetAddr &addr) const;

    inet::NeighborTable &routes() { return inet_.routes(); }
    HostOS &os() { return os_; }

    /** The shared protocol engine (kernel execution context). */
    inet::InetStack &inet() { return inet_; }

    /** Default TCP config handed to sockets (mss derived from MTU). */
    inet::TcpConfig defaultTcpConfig() const;

    // --- socket API --------------------------------------------------
    std::shared_ptr<TcpSocket>
    tcpConnect(const inet::SockAddr &local, const inet::SockAddr &remote,
               const inet::TcpConfig &cfg, TcpSocket::ConnectCb cb,
               std::size_t rcv_buf = 256 * 1024);

    /** Monitor @p port for incoming connections. */
    void tcpListen(std::uint16_t port, const inet::TcpConfig &cfg,
                   AcceptCb on_accept, std::size_t rcv_buf = 256 * 1024);

    std::shared_ptr<UdpSocket> udpBind(const inet::SockAddr &local);

    /**
     * A fresh local port for an outgoing connection: 30100, 30101, …
     * counted per stack, so a run's ports follow only what ran on
     * this host before it.
     */
    std::uint16_t ephemeralPort() { return ephemeralPort_++; }

    /**
     * Teardown: drop every callback this stack's sockets hold for
     * their owners. Such a callback usually holds its own socket, so
     * the two would otherwise keep each other alive forever. Call with
     * the simulation stopped, while the hosts and NICs still exist.
     */
    void dropCallbacks();

    // --- NIC receive path (called from the NIC ISR) -------------------
    void nicReceive(net::PacketPtr pkt);

    // --- used by sockets ----------------------------------------------
    /**
     * Emit one UDP datagram after charging the kernel's output path;
     * @p done (optional) reports the IP-layer outcome — EMSGSIZE-class
     * failures surface here instead of vanishing into a warn log.
     */
    void udpOutput(inet::IpDatagram &&dgram,
                   std::function<void(inet::IpSendResult)> done = nullptr);
    const HostCostModel &costs() const { return os_.costs(); }

    /**
     * Cycles for the user->kernel copy of @p n bytes; includes the
     * checksum pass unless the NIC offloads checksums (Linux 2.4's
     * csum_and_copy_from_user).
     */
    sim::Cycles
    txCopyCycles(std::size_t n) const
    {
        const HostNicDriver *nic = primaryNic();
        const bool offload = nic && nic->checksumOffload();
        return HostOS::byteCycles(offload ? costs().copyPerByte
                                          : costs().copyChecksumPerByte,
                                  n);
    }

    // --- InetEnv (kernel execution context) ---------------------------
    sim::Tick now() override;
    sim::EventHandle scheduleTimer(sim::Tick delay,
                                   std::function<void()> fn) override;
    std::uint32_t randomIss() override;
    sim::Tracer *tracer() override;
    const std::string &inetName() const override;
    void connectionClosed(inet::TcpConnection &conn) override;

    std::optional<std::uint32_t> txMtu(net::NodeId next_hop) override;
    void chargeFragmentsTx(std::size_t extra) override;
    void wireTx(std::span<std::vector<std::uint8_t>> frames,
                bool ipv6, net::NodeId dst_node) override;
    void emitTcpSegment(inet::IpDatagram &&dgram,
                        const inet::TcpSegMeta &meta) override;

    void chargeRxFrame(std::size_t wire_bytes) override;
    void chargeTcpInput(std::size_t payload_bytes,
                        bool pure_ack) override;
    void chargeUdpInput(std::size_t payload_bytes) override;

    bool tcpAccept(const inet::FourTuple &t,
                   const inet::TcpHeader &syn) override;
    void tcpRefused(const inet::IpDatagram &dgram,
                    const inet::TcpHeader &hdr,
                    std::span<const std::uint8_t> payload) override;

  private:
    HostOS &os_;
    /** Attached interfaces in attach order; front is the primary. */
    std::vector<HostNicDriver *> nics_;
    // Lookup only, never iterated — safe despite hash ordering.
    std::unordered_map<net::NodeId, HostNicDriver *> egress_;
    inet::InetStack inet_;
    /** Initial sequence numbers: (seed, name()) stream. */
    sim::Random issRng_;
    std::uint16_t ephemeralPort_ = 30100;

  public:
    // Stats: the engine's counters are registered under their legacy
    // kernel names; pktsIn counts NIC interrupts and stays
    // adapter-owned.
    sim::Counter pktsIn;

  private:
    struct Listener
    {
        inet::TcpConfig cfg;
        AcceptCb onAccept;
        std::size_t rcvBuf;
    };

    friend class TcpSocket;
    friend class UdpSocket;

    /** Registration used by TcpSocket. */
    void registerConn(const inet::FourTuple &t,
                      inet::TcpConnection *conn,
                      std::shared_ptr<TcpSocket> sock);

    /** Ordered by port: any bulk walk visits listeners low-to-high. */
    std::map<std::uint16_t, std::unique_ptr<Listener>> listeners_;
    // Lookup/erase only, never iterated — safe despite pointer keys.
    std::unordered_map<inet::TcpConnection *, std::shared_ptr<TcpSocket>>
        socketsByConn_;
    /** Monotonic id for per-connection stat prefixes. */
    std::uint64_t connSeq_ = 0;
    /** Every socket made here, in creation order (dropCallbacks). */
    std::vector<std::weak_ptr<TcpSocket>> tcpSockets_;
    std::vector<std::weak_ptr<UdpSocket>> udpSockets_;
};

} // namespace qpip::host
