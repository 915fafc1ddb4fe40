#include "inet/inet_stack.hh"

#include <algorithm>

#include "inet/ipv4.hh"
#include "inet/ipv6.hh"
#include "inet/tcp_header.hh"
#include "inet/udp.hh"
#include "net/packet.hh"
#include "sim/logging.hh"

namespace qpip::inet {

InetStack::InetStack(InetEnv &env, sim::Tick reass_timeout)
    : env_(env), reass_(reass_timeout)
{}

void
InetStack::addLocalAddress(const InetAddr &addr)
{
    if (!isLocal(addr))
        localAddrs_.push_back(addr);
}

bool
InetStack::isLocal(const InetAddr &addr) const
{
    return std::ranges::find(localAddrs_, addr) != localAddrs_.end();
}

std::size_t
InetStack::maxIpPayload(const InetAddr &dst)
{
    // Both wire formats bound a datagram by 16-bit length fields:
    // v4's total length includes the header; v6's payload length (and
    // the fragment offset field) cap the upper-layer bytes.
    return dst.isV6() ? 65535 : 65535 - ipv4HeaderBytes;
}

// ---------------------------------------------------------------------
// Transmit
// ---------------------------------------------------------------------

IpSendResult
InetStack::ipOutput(IpDatagram &&dgram)
{
    if (isLocal(dgram.dst)) {
        // Loopback: straight back into ipInput with the receive-side
        // protocol charges (no driver, no interrupt) — exactly the
        // path the paper uses to bound host overhead in Table 1.
        loopbackPkts.inc();
        ipInput(std::move(dgram));
        return IpSendResult::Ok;
    }
    // Route first: the egress interface — and with it the MTU — is a
    // property of the chosen next hop on a multi-homed context.
    const auto route = routes_.lookup(dgram.dst);
    if (!route) {
        sim::warn("%s: no route to %s", env_.inetName().c_str(),
                  dgram.dst.toString().c_str());
        return IpSendResult::NoRoute;
    }
    const auto mtu = env_.txMtu(*route);
    if (!mtu) {
        sim::warn("%s: no NIC attached, dropping",
                  env_.inetName().c_str());
        return IpSendResult::NoLink;
    }

    env_.chargeIpHeaderTx();
    const bool v6 = dgram.dst.isV6();
    const std::size_t len = dgram.payload.size();
    bool encodable;
    if (!v6) {
        encodable = len <= maxIpPayload(dgram.dst);
    } else if (ipv6HeaderBytes + len <= *mtu) {
        // Single frame: the 16-bit payload-length field binds.
        encodable = len <= maxIpPayload(dgram.dst);
    } else {
        // Fragmented: each fragment's 13-bit (x8-octet) offset must
        // encode, which on a SAN-scale MTU admits datagrams beyond
        // 64 KiB (QPIP message mode leans on this, jumbogram-style).
        const std::size_t cap =
            (*mtu - ipv6HeaderBytes - ipv6FragHeaderBytes) &
            ~std::size_t(7);
        encodable = cap > 0 && ((len - 1) / cap) * cap <= 65528;
    }
    if (!encodable) {
        msgSizeDrops.inc();
        sim::warn("%s: datagram exceeds the IP length limit, dropping",
                  env_.inetName().c_str());
        return IpSendResult::MsgSize;
    }

    pktsOut.inc();
    // txFrames_ is in use from here to the clear() below, and nothing
    // in between sends a datagram: the charges only reserve processor
    // time, and wireTx hands each frame to a NIC that puts it on the
    // link from a later event (EthNic after its DMA, the QPIP NIC when
    // its firmware frees). A loopback send returned above, before the
    // list was touched. The check makes any future re-entry loud.
    if (!txFrames_.empty())
        sim::panic("%s: ipOutput re-entered while sending a datagram",
                   env_.inetName().c_str());
    if (v6)
        fragmentIpv6(dgram, *mtu, fragIdent_++, txFrames_);
    else
        fragmentIpv4(dgram, *mtu, identCounter_++, txFrames_);
    if (txFrames_.size() > 1)
        env_.chargeFragmentsTx(txFrames_.size() - 1);
    env_.chargeMediaSend();
    env_.wireTx(txFrames_, v6, *route);
    txFrames_.clear();
    // The datagram's payload has been copied into the wire frames;
    // retire its storage so the next segment reuses the capacity.
    net::recycleBuffer(std::move(dgram.payload));
    return IpSendResult::Ok;
}

// ---------------------------------------------------------------------
// Receive
// ---------------------------------------------------------------------

void
InetStack::wireInput(net::NetProto proto,
                     std::span<const std::uint8_t> bytes)
{
    env_.chargeRxFrame(bytes.size());

    IpFrame frame;
    bool ok = false;
    if (proto == net::NetProto::Ipv4)
        ok = parseIpv4(bytes, frame);
    else if (proto == net::NetProto::Ipv6)
        ok = parseIpv6(bytes, frame);
    if (!ok) {
        badFrames.inc();
        return;
    }
    env_.chargeIpParsed(frame.frag.has_value());

    reass_.expire(env_.now());
    auto dgram = reass_.offer(std::move(frame), env_.now());
    if (dgram)
        ipInput(std::move(*dgram));
    // else: fragment held for reassembly
}

void
InetStack::ipInput(IpDatagram dgram)
{
    switch (dgram.proto) {
      case IpProto::Tcp:
        deliverTcp(dgram);
        break;
      case IpProto::Udp:
        deliverUdp(dgram);
        break;
      default:
        badFrames.inc();
        break;
    }
    // Upper layers consume the payload synchronously (spans are
    // copied before returning); retire the storage for reuse.
    net::recycleBuffer(std::move(dgram.payload));
}

void
InetStack::deliverTcp(IpDatagram &dgram)
{
    TcpHeader hdr;
    std::span<const std::uint8_t> payload;
    if (!parseTcp(dgram.src, dgram.dst, dgram.payload, hdr, payload)) {
        badFrames.inc();
        return;
    }

    const bool pure_ack =
        payload.empty() &&
        !(hdr.flags &
          (tcpflags::syn | tcpflags::fin | tcpflags::rst));
    env_.chargeTcpInput(payload.size(), pure_ack);

    FourTuple t;
    t.local = SockAddr{dgram.dst, hdr.dstPort};
    t.remote = SockAddr{dgram.src, hdr.srcPort};
    if (auto *conn = tcp_.lookupConn(t)) {
        conn->segmentArrived(hdr, payload);
        return;
    }
    // New connection?
    if (hdr.has(tcpflags::syn) && !hdr.has(tcpflags::ack)) {
        if (env_.tcpAccept(t, hdr))
            return;
    }
    noMatchDrops.inc();
    env_.tcpRefused(dgram, hdr, payload);
}

void
InetStack::deliverUdp(IpDatagram &dgram)
{
    env_.chargeUdpPreParse();
    UdpHeader hdr;
    std::span<const std::uint8_t> payload;
    if (!parseUdp(dgram.src, dgram.dst, dgram.payload, hdr, payload)) {
        badFrames.inc();
        return;
    }
    env_.chargeUdpInput(payload.size());

    auto it = udpPorts_.find(hdr.dstPort);
    if (it == udpPorts_.end()) {
        noMatchDrops.inc();
        return;
    }
    it->second->udpDeliver(
        std::vector<std::uint8_t>(payload.begin(), payload.end()),
        SockAddr{dgram.src, hdr.srcPort});
}

// ---------------------------------------------------------------------
// Demux tables
// ---------------------------------------------------------------------

void
InetStack::registerConn(const FourTuple &t, TcpConnection *conn)
{
    tcp_.insertConn(t, conn);
}

void
InetStack::unregisterConn(const FourTuple &t)
{
    tcp_.eraseConn(t);
}

bool
InetStack::bindUdp(std::uint16_t port, UdpEndpoint *ep)
{
    if (udpPorts_.contains(port))
        return false;
    udpPorts_[port] = ep;
    return true;
}

void
InetStack::unbindUdp(std::uint16_t port)
{
    udpPorts_.erase(port);
}

// ---------------------------------------------------------------------
// TcpEnv
// ---------------------------------------------------------------------

sim::Tick
InetStack::now()
{
    return env_.now();
}

sim::EventHandle
InetStack::scheduleTimer(sim::Tick delay, std::function<void()> fn)
{
    return env_.scheduleTimer(delay, std::move(fn));
}

void
InetStack::tcpOutput(IpDatagram &&dgram, const TcpSegMeta &meta)
{
    env_.emitTcpSegment(std::move(dgram), meta);
}

std::uint32_t
InetStack::randomIss()
{
    return env_.randomIss();
}

void
InetStack::connectionClosed(TcpConnection &conn)
{
    tcp_.eraseConn(conn.tuple());
    env_.connectionClosed(conn);
}

sim::Tracer *
InetStack::tracer()
{
    return env_.tracer();
}

} // namespace qpip::inet
