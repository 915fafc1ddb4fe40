#include "nic/transport/rud_engine.hh"

#include <algorithm>

#include "inet/udp.hh"
#include "net/serialize.hh"
#include "nic/transport/qp_context.hh"
#include "sim/simulation.hh"

namespace qpip::nic {

using inet::IpDatagram;
using inet::IpProto;

void
RudEngine::emitFrame(QpContext &qp, const inet::SockAddr &to,
                     const std::vector<std::uint8_t> &frame)
{
    nic_.fw_.charge(FwStage::BuildTcpHdr,
                    nic_.params_.costs.buildUdpHdr);
    IpDatagram dgram;
    dgram.src = qp.local.addr;
    dgram.dst = to.addr;
    dgram.proto = IpProto::Udp;
    dgram.payload = inet::serializeUdp(qp.local.addr, to.addr,
                                       qp.local.port, to.port, frame);
    nic_.inet_.ipOutput(std::move(dgram));
}

void
RudEngine::transmit(QpContext &qp, SendWr wr,
                    std::vector<std::uint8_t> data)
{
    Peer &p = qp.rud->peers[wr.remote];
    if (!p.blocked.empty() || p.window.size() >= windowLimit) {
        // Window full: park the staged WR; the ack that opens the
        // window drains the queue in order.
        p.blocked.push_back({wr, std::move(data)});
        return;
    }
    emitData(qp, p, wr, std::move(data));
}

void
RudEngine::emitData(QpContext &qp, Peer &p, SendWr wr,
                    std::vector<std::uint8_t> data)
{
    net::RudHeader h;
    h.opcode = net::RudOpcode::Data;
    h.seq = p.nextSeq;
    h.ack = p.expectedSeq - 1;

    nic_.fw_.charge(FwStage::RudExec,
                    nic_.params_.costs.rudHeaderBuild);
    auto frame = net::serializeRudMessage(h, data);

    // Oversize checks mirror the UD path: probe before committing a
    // sequence number so a rejected WR leaves no hole in the stream.
    nic_.fw_.charge(FwStage::BuildTcpHdr,
                    nic_.params_.costs.buildUdpHdr);
    IpDatagram dgram;
    dgram.src = qp.local.addr;
    dgram.dst = wr.remote.addr;
    dgram.proto = IpProto::Udp;
    dgram.payload =
        inet::serializeUdp(qp.local.addr, wr.remote.addr,
                           qp.local.port, wr.remote.port, frame);
    const auto res = nic_.inet_.ipOutput(std::move(dgram));
    nic_.fw_.charge(FwStage::UpdateTx,
                    nic_.params_.costs.updateTxData);
    if (res == inet::IpSendResult::MsgSize) {
        nic_.completeSend(qp, wr, WcStatus::LengthError, wr.sge.length);
        return;
    }
    p.window.push_back({h.seq, wr, std::move(frame)});
    ++p.nextSeq;
    if (!p.rto.pending())
        armRto(qp, p, wr.remote);
}

void
RudEngine::datagramDeliver(QpContext &qp,
                           std::vector<std::uint8_t> &&msg,
                           const inet::SockAddr &from)
{
    nic_.fw_.charge(FwStage::RudExec, nic_.params_.costs.rudParse);
    net::RudHeader h;
    std::span<const std::uint8_t> payload;
    if (!net::parseRudMessage(msg, h, payload)) {
        nic_.rudMalformed.inc();
        return;
    }
    Peer &p = qp.rud->peers[from];
    processAck(qp, p, from, h.ack);
    if (h.opcode == net::RudOpcode::Ack)
        return;

    if (h.seq != p.expectedSeq || p.holding) {
        // Go-back-N receiver: anything but the next in-order
        // sequence is dropped; the sender's timer recovers it. A
        // duplicate of old data still earns an ack so a sender whose
        // acks were lost can advance.
        nic_.rudSeqDrops.inc();
        if (h.seq < p.expectedSeq)
            sendAck(qp, p, from);
        return;
    }
    if (!qp.recvWrAvailable()) {
        // Receiver-not-ready: reliable service must not drop
        // in-order data. Park it (one datagram per peer — go-back-N
        // admits no more) and withhold the ack; delivery resumes
        // from recvReplenished().
        if (qp.srq != nullptr)
            nic_.srqRnrHolds.inc();
        else
            nic_.rudRnrHolds.inc();
        p.holding = true;
        p.held.assign(payload.begin(), payload.end());
        qp.rud->holding.insert(from);
        nic_.rekeySrqWake(qp);
        return;
    }
    ++p.expectedSeq;
    nic_.receiveIntoWr(
        qp, std::vector<std::uint8_t>(payload.begin(), payload.end()),
        from);
    sendAck(qp, p, from);
}

void
RudEngine::processAck(QpContext &qp, Peer &p,
                      const inet::SockAddr &from, std::uint32_t ack)
{
    if (ack <= p.ackedSeq)
        return;
    nic_.fw_.charge(FwStage::RudExec,
                    nic_.params_.costs.rudAckProcess);
    p.ackedSeq = ack;
    while (!p.window.empty() && p.window.front().seq <= ack) {
        Unacked u = std::move(p.window.front());
        p.window.pop_front();
        nic_.completeSend(qp, u.wr, WcStatus::Success, u.wr.sge.length);
    }
    // Forward progress resets the backoff and restarts the timer
    // for whatever is still outstanding.
    p.rtoShift = 0;
    if (p.rto.pending())
        p.rto.cancel();
    if (!p.window.empty())
        armRto(qp, p, from);
    while (!p.blocked.empty() && p.window.size() < windowLimit) {
        PendingSend ps = std::move(p.blocked.front());
        p.blocked.pop_front();
        emitData(qp, p, ps.wr, std::move(ps.data));
    }
}

void
RudEngine::sendAck(QpContext &qp, Peer &p, const inet::SockAddr &to)
{
    nic_.fw_.charge(FwStage::RudExec,
                    nic_.params_.costs.rudAckBuild);
    net::RudHeader h;
    h.opcode = net::RudOpcode::Ack;
    h.ack = p.expectedSeq - 1;
    const auto frame = net::serializeRudMessage(h, {});

    nic_.fw_.charge(FwStage::BuildTcpHdr,
                    nic_.params_.costs.buildUdpHdr);
    IpDatagram dgram;
    dgram.src = qp.local.addr;
    dgram.dst = to.addr;
    dgram.proto = IpProto::Udp;
    dgram.payload = inet::serializeUdp(qp.local.addr, to.addr,
                                       qp.local.port, to.port, frame);
    nic_.inet_.ipOutput(std::move(dgram));
    nic_.fw_.charge(FwStage::UpdateTx,
                    nic_.params_.costs.updateTxAck);
    nic_.rudAcksSent.inc();
}

void
RudEngine::armRto(const QpContext &qp, Peer &p,
                  const inet::SockAddr &to)
{
    const auto &tcp = nic_.params_.tcp;
    const std::uint32_t shift = std::min<std::uint32_t>(p.rtoShift, 16);
    const sim::Tick delay =
        std::min(tcp.maxRto, tcp.minRto << shift);
    p.rto = nic_.scheduleTimer(
        delay, [this, num = qp.num, to]() { rtoFire(num, to); });
}

void
RudEngine::rtoFire(QpNum qp, const inet::SockAddr &to)
{
    QpContext *ctx = nic_.lookupQp(qp);
    if (ctx == nullptr)
        return;
    auto pit = ctx->rud->peers.find(to);
    if (pit == ctx->rud->peers.end() || pit->second.window.empty())
        return;
    Peer &p = pit->second;
    if (p.rtoShift < 16)
        ++p.rtoShift;
    // Go-back-N: re-emit the whole unacked window. The retained
    // frames carry their original (possibly stale) piggybacked acks;
    // cumulative acks make that harmless. Walk by index: to a
    // loopback peer emitFrame delivers at once, and the ack that
    // provokes may pop or push p.window under the walk.
    for (std::size_t i = 0; i < p.window.size(); ++i) {
        nic_.rudRetransmits.inc();
        emitFrame(*ctx, to, p.window[i].frame);
        nic_.fw_.charge(FwStage::UpdateTx,
                        nic_.params_.costs.updateTxData);
    }
    armRto(*ctx, p, to);
}

void
RudEngine::recvReplenished(QpContext &qp)
{
    auto &held = qp.rud->holding;
    if (held.empty())
        return;
    while (!held.empty() && qp.recvWrAvailable()) {
        const inet::SockAddr addr = *held.begin();
        held.erase(held.begin());
        Peer &p = qp.rud->peers.at(addr);
        p.holding = false;
        ++p.expectedSeq;
        nic_.receiveIntoWr(qp, std::move(p.held), addr);
        p.held = {};
        sendAck(qp, p, addr);
    }
    if (held.empty())
        nic_.rekeySrqWake(qp);
}

std::uint64_t
RudEngine::replenishThreshold(const QpContext &qp) const
{
    return qp.rud->holding.empty() ? QpipNic::SrqContext::neverWakes
                                  : 0;
}

void
RudEngine::flushed(QpContext &qp, WcStatus status)
{
    // Collect, then sort: completions leave in peer-address order,
    // not in the table's hash order.
    std::vector<inet::SockAddr> addrs;
    addrs.reserve(qp.rud->peers.size());
    for (const auto &entry : qp.rud->peers)
        addrs.push_back(entry.first);
    std::sort(addrs.begin(), addrs.end());
    for (const inet::SockAddr &addr : addrs) {
        Peer &p = qp.rud->peers.at(addr);
        if (p.rto.pending())
            p.rto.cancel();
        for (const Unacked &u : p.window) {
            nic_.completeSend(qp, u.wr, status);
        }
        for (const PendingSend &ps : p.blocked) {
            nic_.completeSend(qp, ps.wr, status);
        }
    }
    qp.rud->peers.clear();
    if (!qp.rud->holding.empty()) {
        qp.rud->holding.clear();
        nic_.rekeySrqWake(qp);
    }
}

} // namespace qpip::nic
