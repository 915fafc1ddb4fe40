#include "host/host_stack.hh"

#include "inet/tcp_header.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace qpip::host {

using inet::IpDatagram;
using inet::IpProto;

HostStack::HostStack(sim::Simulation &sim, std::string name, HostOS &os)
    : SimObject(sim, std::move(name)), os_(os), inet_(*this),
      issRng_(sim::streamSeed(sim.seed(), this->name()))
{
    regStat("pktsOut", inet_.pktsOut);
    regStat("pktsIn", pktsIn);
    regStat("badPktsIn", inet_.badFrames);
    regStat("noPortDrops", inet_.noMatchDrops);
    regStat("loopbackPkts", inet_.loopbackPkts);
    regStat("msgSizeDrops", inet_.msgSizeDrops);
    regStat("reass6.fragmentsIn", inet_.reassembler().fragmentsIn);
    regStat("reass6.reassembled", inet_.reassembler().reassembled);
    regStat("reass6.expired", inet_.reassembler().expired);
}

HostStack::~HostStack() = default;

void
HostStack::attachNic(HostNicDriver &nic)
{
    nics_.push_back(&nic);
}

void
HostStack::setEgress(net::NodeId dst_node, HostNicDriver &nic)
{
    egress_[dst_node] = &nic;
}

HostNicDriver *
HostStack::egressFor(net::NodeId dst_node) const
{
    const auto it = egress_.find(dst_node);
    if (it != egress_.end())
        return it->second;
    return primaryNic();
}

void
HostStack::addAddress(const inet::InetAddr &addr)
{
    inet_.addLocalAddress(addr);
}

bool
HostStack::isLocal(const inet::InetAddr &addr) const
{
    return inet_.isLocal(addr);
}

inet::TcpConfig
HostStack::defaultTcpConfig() const
{
    inet::TcpConfig cfg;
    const HostNicDriver *nic = primaryNic();
    const std::uint32_t mtu = nic ? nic->mtu() : 1500;
    // Conservative: leave room for a 40/60-byte network header plus
    // TCP header with timestamps.
    cfg.mss = mtu - 60 - 12;
    cfg.tsGranularity = sim::oneMs; // Linux jiffies-ish
    cfg.minRto = 200 * sim::oneMs;  // Linux 2.4 TCP_RTO_MIN
    cfg.delAckTimeout = 40 * sim::oneMs;
    cfg.windowScale = 2;
    return cfg;
}

// ---------------------------------------------------------------------
// Socket API
// ---------------------------------------------------------------------

std::shared_ptr<TcpSocket>
HostStack::tcpConnect(const inet::SockAddr &local,
                      const inet::SockAddr &remote,
                      const inet::TcpConfig &cfg, TcpSocket::ConnectCb cb,
                      std::size_t rcv_buf)
{
    auto sock = std::make_shared<TcpSocket>(*this, cfg, rcv_buf);
    sock->connectCb_ = std::move(cb);
    inet::FourTuple t{local, remote};
    registerConn(t, sock->conn_.get(), sock);
    // connect(2): syscall + handshake initiation.
    os_.defer(costs().syscallOverhead + costs().sockSendBase,
              [sock, local, remote] {
                  sock->conn_->openActive(local, remote);
              });
    return sock;
}

void
HostStack::tcpListen(std::uint16_t port, const inet::TcpConfig &cfg,
                     AcceptCb on_accept, std::size_t rcv_buf)
{
    auto listener = std::make_unique<Listener>();
    listener->cfg = cfg;
    listener->onAccept = std::move(on_accept);
    listener->rcvBuf = rcv_buf;
    listeners_[port] = std::move(listener);
}

std::shared_ptr<UdpSocket>
HostStack::udpBind(const inet::SockAddr &local)
{
    auto sock = std::make_shared<UdpSocket>(*this, local);
    if (!inet_.bindUdp(local.port, sock.get()))
        sim::fatal("udp port %u already bound", local.port);
    udpSockets_.push_back(sock);
    return sock;
}

void
HostStack::dropCallbacks()
{
    // A dropped callback may hold the last outside reference to its
    // socket; the locked pointer keeps the socket alive meanwhile.
    for (const auto &weak : tcpSockets_) {
        if (auto sock = weak.lock()) {
            sock->connectCb_ = nullptr;
            sock->pendingSendDone_ = nullptr;
            sock->recvCb_ = nullptr;
        }
    }
    for (const auto &weak : udpSockets_) {
        if (auto sock = weak.lock())
            sock->waiter_ = nullptr;
    }
}

void
HostStack::registerConn(const inet::FourTuple &t,
                        inet::TcpConnection *conn,
                        std::shared_ptr<TcpSocket> sock)
{
    inet_.registerConn(t, conn);
    tcpSockets_.push_back(sock);
    socketsByConn_[conn] = std::move(sock);
    if (!conn->stats().registered()) {
        conn->stats().registerIn(
            statRegistry(),
            name() + ".tcp.conn" + std::to_string(connSeq_++));
    }
}

// ---------------------------------------------------------------------
// Transmit path
// ---------------------------------------------------------------------

void
HostStack::emitTcpSegment(IpDatagram &&dgram,
                          const inet::TcpSegMeta &meta)
{
    sim::Cycles c = costs().tcpOutputPerSeg + costs().ipPerPacket +
                    costs().driverTxPerPkt;
    // Retransmissions re-checksum data already resident in the kernel
    // (the original checksum was folded into the user copy).
    const HostNicDriver *nic = primaryNic();
    if (meta.retransmit && nic && !nic->checksumOffload()) {
        c += HostOS::byteCycles(costs().copyPerByte - 1.0,
                                meta.payloadBytes);
    }
    os_.defer(c, [this, d = std::move(dgram)]() mutable {
        inet_.ipOutput(std::move(d));
    });
}

void
HostStack::udpOutput(IpDatagram &&dgram,
                     std::function<void(inet::IpSendResult)> done)
{
    const sim::Cycles c = costs().udpOutputPerDgram +
                          costs().ipPerPacket + costs().driverTxPerPkt;
    os_.defer(c, [this, d = std::move(dgram),
                  done = std::move(done)]() mutable {
        const auto res = inet_.ipOutput(std::move(d));
        if (done)
            done(res);
    });
}

std::optional<std::uint32_t>
HostStack::txMtu(net::NodeId next_hop)
{
    const HostNicDriver *nic = egressFor(next_hop);
    if (nic == nullptr)
        return std::nullopt;
    return nic->mtu();
}

void
HostStack::chargeFragmentsTx(std::size_t extra)
{
    // One IP-layer pass per extra fragment, as the kernel's output
    // loop would charge.
    for (std::size_t i = 0; i < extra; ++i)
        os_.charge(costs().ipPerPacket);
}

void
HostStack::wireTx(std::span<std::vector<std::uint8_t>> frames,
                  bool ipv6, net::NodeId dst_node)
{
    // Same per-route decision ipOutput's txMtu probe saw.
    HostNicDriver *nic = egressFor(dst_node);
    for (auto &frame : frames) {
        auto pkt = net::makePacket();
        pkt->src = nic->nodeId();
        pkt->dst = dst_node;
        pkt->proto = ipv6 ? net::NetProto::Ipv6 : net::NetProto::Ipv4;
        pkt->data = std::move(frame);
        nic->transmit(std::move(pkt));
    }
}

// ---------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------

void
HostStack::nicReceive(net::PacketPtr pkt)
{
    pktsIn.inc();
    os_.defer(costs().driverRxPerPkt, [this, pkt] {
        inet_.wireInput(pkt->proto, pkt->data);
    });
}

void
HostStack::chargeRxFrame(std::size_t)
{
    os_.charge(costs().ipPerPacket);
}

void
HostStack::chargeTcpInput(std::size_t payload_bytes, bool)
{
    sim::Cycles c = costs().tcpInputPerSeg;
    const HostNicDriver *nic = primaryNic();
    if (nic && !nic->checksumOffload()) {
        // The rx checksum pass over the payload.
        c += HostOS::byteCycles(1.0, payload_bytes);
    }
    os_.charge(c);
}

void
HostStack::chargeUdpInput(std::size_t payload_bytes)
{
    sim::Cycles c = costs().udpInputPerDgram;
    const HostNicDriver *nic = primaryNic();
    if (nic && !nic->checksumOffload())
        c += HostOS::byteCycles(1.0, payload_bytes);
    os_.charge(c);
}

bool
HostStack::tcpAccept(const inet::FourTuple &t,
                     const inet::TcpHeader &syn)
{
    auto lit = listeners_.find(syn.dstPort);
    if (lit == listeners_.end())
        return false;
    Listener *listener = lit->second.get();
    auto cfg = listener->cfg;
    auto sock = std::make_shared<TcpSocket>(*this, cfg,
                                            listener->rcvBuf);
    auto *conn = sock->conn_.get();
    registerConn(t, conn, sock);
    // Stash the accept callback for onConnected.
    sock->connectCb_ = [this, listener, sock](bool ok) {
        if (ok && listener->onAccept)
            listener->onAccept(sock);
    };
    conn->openPassive(t.local, t.remote, syn);
    return true;
}

void
HostStack::tcpRefused(const IpDatagram &dgram,
                      const inet::TcpHeader &hdr,
                      std::span<const std::uint8_t> payload)
{
    // RFC 793: RST for segments to nonexistent connections.
    if (hdr.has(inet::tcpflags::rst))
        return;
    inet::TcpHeader rst;
    rst.srcPort = hdr.dstPort;
    rst.dstPort = hdr.srcPort;
    rst.flags = inet::tcpflags::rst | inet::tcpflags::ack;
    rst.seq = hdr.has(inet::tcpflags::ack) ? hdr.ack : 0;
    rst.ack = hdr.seq + static_cast<std::uint32_t>(payload.size()) +
              (hdr.has(inet::tcpflags::syn) ? 1 : 0);
    IpDatagram out;
    out.src = dgram.dst;
    out.dst = dgram.src;
    out.proto = IpProto::Tcp;
    out.payload = serializeTcp(out.src, out.dst, rst, {});
    os_.defer(costs().tcpOutputPerSeg + costs().driverTxPerPkt,
              [this, d = std::move(out)]() mutable {
                  inet_.ipOutput(std::move(d));
              });
}

// ---------------------------------------------------------------------
// Runtime services
// ---------------------------------------------------------------------

sim::Tick
HostStack::now()
{
    return curTick();
}

sim::EventHandle
HostStack::scheduleTimer(sim::Tick delay, std::function<void()> fn)
{
    return os_.timer(delay, std::move(fn));
}

std::uint32_t
HostStack::randomIss()
{
    return static_cast<std::uint32_t>(issRng_.next());
}

const std::string &
HostStack::inetName() const
{
    return name();
}

void
HostStack::connectionClosed(inet::TcpConnection &conn)
{
    // The engine already dropped the PCB entry. Release the stack's
    // reference once the current callback chain unwinds; the
    // application may still hold the socket.
    auto *key = &conn;
    schedule(curTick(), [this, key] { socketsByConn_.erase(key); });
}

sim::Tracer *
HostStack::tracer()
{
    return &SimObject::tracer();
}

} // namespace qpip::host
