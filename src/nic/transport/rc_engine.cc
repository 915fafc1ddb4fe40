#include "nic/transport/rc_engine.hh"

#include <algorithm>

#include "nic/transport/qp_context.hh"
#include "sim/simulation.hh"

namespace qpip::nic {

using sim::Tick;

void
RcEngine::transmit(QpContext &qp, SendWr wr,
                   std::vector<std::uint8_t> data)
{
    if (!qp.conn) {
        nic_.completeSend(qp, wr, WcStatus::Flushed);
        return;
    }
    const std::uint64_t tag = qp.nextTag++;
    if (qp.rdmaWindow == 0) {
        // Legacy framing: the message is the raw payload.
        qp.inflightSends.push_back(
            {tag, QpContext::TxKind::Send, wr});
        qp.conn->sendMessage(std::move(data), tag);
        return;
    }
    net::RdmaHeader h;
    if (wr.opcode == WrOpcode::Send) {
        h.opcode = net::RdmaOpcode::Send;
        qp.inflightSends.push_back(
            {tag, QpContext::TxKind::Send, wr});
    } else {
        h.opcode = net::RdmaOpcode::Write;
        h.opId = qp.nextRdmaId++;
        h.raddr = wr.raddr;
        h.rkey = wr.rkey;
        nic_.fw_.charge(FwStage::RdmaExec,
                        nic_.params_.costs.rdmaHeaderBuild);
        if (nic_.tracer()->enabled()) {
            nic_.tracer()->instant(
                nic_.name(), "rdma write req", nic_.curTick(),
                "{\"qp\":" + std::to_string(qp.num) +
                    ",\"bytes\":" + std::to_string(wr.sge.length) +
                    "}");
        }
        qp.inflightSends.push_back(
            {tag, QpContext::TxKind::RdmaReq, wr});
        qp.pendingRdma.emplace_back(h.opId, wr);
    }
    qp.conn->sendMessage(net::serializeRdmaMessage(h, data), tag);
}

void
RcEngine::serviceRdmaRead(QpContext &qp, SendWr wr)
{
    // The WR's SGE is the local landing buffer. Validate it — and
    // that the response message can traverse our own standing
    // window — before anything crosses the wire.
    std::uint8_t *dst = nic_.mrs_.resolve(wr.sge);
    const bool oversize =
        net::rdmaHeaderBytes(net::RdmaOpcode::ReadResp) +
            wr.sge.length >
        qp.rdmaWindow;
    if (dst == nullptr || oversize) {
        nic_.completeSend(qp, wr, WcStatus::LengthError);
        return;
    }
    nic_.fw_.charge(FwStage::RdmaExec,
                    nic_.params_.costs.rdmaHeaderBuild);
    // destroyQp() erases the context immediately: deferred work
    // captures the QP number and re-looks-up, never a reference.
    nic_.schedule(nic_.fw_.busyUntil(), [this, qpn = qp.num,
                                         wr]() mutable {
        QpContext *ctx = nic_.lookupQp(qpn);
        if (ctx == nullptr)
            return; // destroyed while the firmware was busy
        QpContext &qp = *ctx;
        if (!qp.conn) {
            nic_.completeSend(qp, wr, WcStatus::Flushed);
            return;
        }
        net::RdmaHeader h;
        h.opcode = net::RdmaOpcode::ReadReq;
        h.opId = qp.nextRdmaId++;
        h.raddr = wr.raddr;
        h.rkey = wr.rkey;
        h.length = static_cast<std::uint32_t>(wr.sge.length);
        if (nic_.tracer()->enabled()) {
            nic_.tracer()->instant(
                nic_.name(), "rdma read req", nic_.curTick(),
                "{\"qp\":" + std::to_string(qp.num) +
                    ",\"bytes\":" + std::to_string(wr.sge.length) +
                    "}");
        }
        const std::uint64_t tag = qp.nextTag++;
        qp.inflightSends.push_back(
            {tag, QpContext::TxKind::RdmaReq, wr});
        qp.pendingRdma.emplace_back(h.opId, wr);
        qp.conn->sendMessage(net::serializeRdmaMessage(h, {}), tag);
    });
}

void
RcEngine::handleRdmaMessage(QpContext &qp,
                            std::vector<std::uint8_t> msg,
                            const inet::SockAddr &from)
{
    nic_.touchQpContext(qp.num);
    nic_.fw_.exec(
        FwStage::RdmaExec, nic_.params_.costs.rdmaParse,
        [this, qpn = qp.num, msg = std::move(msg), from]() mutable {
            QpContext *ctx = nic_.lookupQp(qpn);
            if (ctx == nullptr)
                return; // destroyed while the firmware was busy
            QpContext &qp = *ctx;
            net::RdmaHeader h;
            std::span<const std::uint8_t> payload;
            if (!net::parseRdmaMessage(msg, h, payload)) {
                nic_.rdmaMalformed.inc();
                return;
            }
            switch (h.opcode) {
              case net::RdmaOpcode::Send:
                nic_.receiveIntoWr(qp,
                                   std::vector<std::uint8_t>(
                                       payload.begin(),
                                       payload.end()),
                                   from);
                break;
              case net::RdmaOpcode::Write:
                executeRdmaWrite(qp, h, payload);
                break;
              case net::RdmaOpcode::ReadReq:
                executeRdmaRead(qp, h);
                break;
              case net::RdmaOpcode::WriteAck:
              case net::RdmaOpcode::ReadResp:
                completeRdmaOp(qp, h, payload);
                break;
            }
        });
}

void
RcEngine::executeRdmaWrite(QpContext &qp, const net::RdmaHeader &hdr,
                           std::span<const std::uint8_t> payload)
{
    net::RdmaHeader resp;
    resp.opcode = net::RdmaOpcode::WriteAck;
    resp.opId = hdr.opId;

    const Sge target{hdr.rkey,
                     static_cast<std::size_t>(hdr.raddr),
                     payload.size()};
    std::uint8_t *dst = nic_.mrs_.resolve(target, accessRemoteWrite);
    if (dst == nullptr) {
        nic_.rdmaRemoteErrors.inc();
        resp.status = net::RdmaWireStatus::RemoteAccess;
        sendRdmaResponse(qp, resp, {});
        return;
    }
    // Put Data: DMA the payload from NIC SRAM into the target region
    // (same shape as the two-sided receive path).
    const Tick begin = std::max(nic_.curTick(), nic_.fw_.busyUntil());
    const Tick fixed = nic_.fw_.clock().cyclesToTicks(
        nic_.params_.costs.putDataFixed);
    const Tick touch = nic_.fw_.clock().cyclesToTicks(
        static_cast<sim::Cycles>(
            nic_.params_.costs.touchPerByte *
            static_cast<double>(payload.size())));
    const Tick dma =
        nic_.dmaOut_.chargeAt(begin, payload.size()) - begin;
    nic_.fw_.chargeTicks(FwStage::PutData,
                         fixed + std::max(touch, dma));
    std::copy(payload.begin(), payload.end(), dst);
    nic_.fw_.charge(FwStage::UpdateRx,
                    nic_.params_.costs.updateRxData);
    nic_.rdmaWrites.inc();
    if (nic_.tracer()->enabled()) {
        nic_.tracer()->instant(
            nic_.name(), "rdma write exec", nic_.curTick(),
            "{\"qp\":" + std::to_string(qp.num) +
                ",\"bytes\":" + std::to_string(payload.size()) + "}");
    }
    sendRdmaResponse(qp, resp, {});
}

void
RcEngine::executeRdmaRead(QpContext &qp, const net::RdmaHeader &hdr)
{
    net::RdmaHeader resp;
    resp.opcode = net::RdmaOpcode::ReadResp;
    resp.opId = hdr.opId;

    const Sge source{hdr.rkey,
                     static_cast<std::size_t>(hdr.raddr),
                     static_cast<std::size_t>(hdr.length)};
    const std::uint8_t *src =
        nic_.mrs_.resolve(source, accessRemoteRead);
    if (src == nullptr) {
        nic_.rdmaRemoteErrors.inc();
        resp.status = net::RdmaWireStatus::RemoteAccess;
        sendRdmaResponse(qp, resp, {});
        return;
    }
    // Get Data: stage the requested range from host memory into NIC
    // SRAM for transmission (mirror of the transmit path).
    const Tick begin = std::max(nic_.curTick(), nic_.fw_.busyUntil());
    const Tick fixed = nic_.fw_.clock().cyclesToTicks(
        nic_.params_.costs.getDataFixed);
    const Tick touch = nic_.fw_.clock().cyclesToTicks(
        static_cast<sim::Cycles>(nic_.params_.costs.touchPerByte *
                                 static_cast<double>(hdr.length)));
    const Tick dma = nic_.dmaIn_.chargeAt(begin, hdr.length) - begin;
    nic_.fw_.chargeTicks(FwStage::GetData,
                         fixed + std::max(touch, dma));
    nic_.rdmaReads.inc();
    if (nic_.tracer()->enabled()) {
        nic_.tracer()->instant(
            nic_.name(), "rdma read exec", nic_.curTick(),
            "{\"qp\":" + std::to_string(qp.num) +
                ",\"bytes\":" + std::to_string(hdr.length) + "}");
    }
    sendRdmaResponse(qp, resp, {src, src + hdr.length});
}

void
RcEngine::sendRdmaResponse(QpContext &qp, net::RdmaHeader hdr,
                           std::span<const std::uint8_t> payload)
{
    nic_.fw_.charge(FwStage::RdmaExec,
                    nic_.params_.costs.rdmaRespBuild);
    auto bytes = net::serializeRdmaMessage(hdr, payload);
    nic_.schedule(nic_.fw_.busyUntil(),
                  [this, qpn = qp.num,
                   bytes = std::move(bytes)]() mutable {
                      QpContext *ctx = nic_.lookupQp(qpn);
                      if (ctx == nullptr || !ctx->conn)
                          return; // torn down before the response left
                      QpContext &qp = *ctx;
                      const std::uint64_t tag = qp.nextTag++;
                      qp.inflightSends.push_back(
                          {tag, QpContext::TxKind::FwResp, SendWr{}});
                      qp.conn->sendMessage(std::move(bytes), tag);
                  });
}

void
RcEngine::completeRdmaOp(QpContext &qp, const net::RdmaHeader &hdr,
                         std::span<const std::uint8_t> payload)
{
    if (qp.pendingRdma.empty() ||
        qp.pendingRdma.front().first != hdr.opId) {
        sim::panic("qp%u: rdma response out of order", qp.num);
    }
    SendWr wr = std::move(qp.pendingRdma.front().second);
    qp.pendingRdma.pop_front();

    if (hdr.status != net::RdmaWireStatus::Ok) {
        nic_.fw_.charge(FwStage::UpdateRx,
                        nic_.params_.costs.updateRxData);
        nic_.completeSend(qp, wr, WcStatus::RemoteAccessError);
        return;
    }

    if (hdr.opcode == net::RdmaOpcode::ReadResp) {
        std::uint8_t *dst = nic_.mrs_.resolve(wr.sge);
        if (dst == nullptr || payload.size() != wr.sge.length) {
            // Landing buffer vanished or the responder lied about
            // the length: surface it locally.
            nic_.fw_.charge(FwStage::UpdateRx,
                            nic_.params_.costs.updateRxData);
            nic_.completeSend(qp, wr, WcStatus::LengthError,
                              payload.size());
            return;
        }
        // Put Data: land the read payload in the local buffer.
        const Tick begin =
            std::max(nic_.curTick(), nic_.fw_.busyUntil());
        const Tick fixed = nic_.fw_.clock().cyclesToTicks(
            nic_.params_.costs.putDataFixed);
        const Tick touch = nic_.fw_.clock().cyclesToTicks(
            static_cast<sim::Cycles>(
                nic_.params_.costs.touchPerByte *
                static_cast<double>(payload.size())));
        const Tick dma =
            nic_.dmaOut_.chargeAt(begin, payload.size()) - begin;
        nic_.fw_.chargeTicks(FwStage::PutData,
                             fixed + std::max(touch, dma));
        std::copy(payload.begin(), payload.end(), dst);
    }

    nic_.fw_.charge(FwStage::UpdateRx,
                    nic_.params_.costs.updateRxData);
    nic_.completeSend(qp, wr, WcStatus::Success, wr.sge.length);
}

} // namespace qpip::nic
