#include "nic/transport/transport_engine.hh"

#include "nic/transport/qp_context.hh"

namespace qpip::nic {

void
TransportEngine::datagramDeliver(QpipNic::QpContext &qp,
                                 std::vector<std::uint8_t> &&,
                                 const inet::SockAddr &)
{
    sim::panic("qp%u: datagram delivered to a non-datagram transport",
               qp.num);
}

void
TransportEngine::bound(QpipNic::QpContext &)
{
}

void
TransportEngine::unbound(QpipNic::QpContext &)
{
}

void
TransportEngine::recvReplenished(QpipNic::QpContext &qp)
{
    // Connected service: the receive window just grew; any message
    // the TCP engine held back may be deliverable now.
    if (qp.conn)
        qp.conn->onReceiveWindowGrew();
}

std::uint64_t
TransportEngine::replenishThreshold(const QpipNic::QpContext &qp) const
{
    // Connected service: the connection's own window threshold, less
    // the standing one-sided window receiveWindow() adds to the posted
    // bytes. Datagram QPs have no connection and never wake.
    const auto w =
        qp.conn ? qp.conn->windowGrewThreshold() : std::nullopt;
    if (!w)
        return QpipNic::SrqContext::neverWakes;
    return *w - std::min<std::uint64_t>(*w, qp.rdmaWindow);
}

void
TransportEngine::flushed(QpipNic::QpContext &, WcStatus)
{
}

} // namespace qpip::nic
