#include "nic/transport/ud_engine.hh"

#include "inet/udp.hh"
#include "nic/transport/qp_context.hh"
#include "sim/simulation.hh"

namespace qpip::nic {

using inet::IpDatagram;
using inet::IpProto;

void
UdEngine::transmit(QpipNic::QpContext &qp, SendWr wr,
                   std::vector<std::uint8_t> data)
{
    // Build UDP Hdr (charged under the header-build stage).
    nic_.fw_.charge(FwStage::BuildTcpHdr,
                    nic_.params_.costs.buildUdpHdr);
    IpDatagram dgram;
    dgram.src = qp.local.addr;
    dgram.dst = wr.remote.addr;
    dgram.proto = IpProto::Udp;
    dgram.payload =
        inet::serializeUdp(qp.local.addr, wr.remote.addr,
                           qp.local.port, wr.remote.port, data);
    const auto res = nic_.inet_.ipOutput(std::move(dgram));

    // "As soon as a UDP message is sent, the associated send WR is
    // marked as complete." An oversized message reports the verbs
    // moral equivalent of EMSGSIZE.
    nic_.fw_.charge(FwStage::UpdateTx,
                    nic_.params_.costs.updateTxData);
    nic_.completeSend(qp, wr,
                      res == inet::IpSendResult::MsgSize
                          ? WcStatus::LengthError
                          : WcStatus::Success,
                      wr.sge.length);
}

void
UdEngine::datagramDeliver(QpipNic::QpContext &qp,
                          std::vector<std::uint8_t> &&msg,
                          const inet::SockAddr &from)
{
    if (!qp.recvWrAvailable()) {
        // Unreliable service: no posted WR, the datagram is gone.
        if (qp.srq != nullptr)
            nic_.srqEmptyDrops.inc();
        else
            nic_.udpNoWrDrops.inc();
        return;
    }
    nic_.receiveIntoWr(qp, std::move(msg), from);
}

void
UdEngine::bound(QpipNic::QpContext &qp)
{
    if (!nic_.inet_.bindUdp(qp.local.port, &qp)) {
        sim::fatal("udp port %u already bound on %s", qp.local.port,
                   nic_.name().c_str());
    }
}

void
UdEngine::unbound(QpipNic::QpContext &qp)
{
    nic_.inet_.unbindUdp(qp.local.port);
}

} // namespace qpip::nic
