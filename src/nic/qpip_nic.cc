#include "nic/qpip_nic.hh"

#include <algorithm>

#include "nic/transport/qp_context.hh"
#include "nic/transport/rc_engine.hh"
#include "nic/transport/rud_engine.hh"
#include "nic/transport/ud_engine.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace qpip::nic {

using inet::IpDatagram;
using inet::IpProto;
using sim::Tick;

const char *
wcStatusName(WcStatus s)
{
    switch (s) {
      case WcStatus::Success: return "success";
      case WcStatus::LengthError: return "length-error";
      case WcStatus::Flushed: return "flushed";
      case WcStatus::RemoteReset: return "remote-reset";
      case WcStatus::RemoteAccessError: return "remote-access-error";
    }
    return "?";
}

inet::TcpConfig
QpipNicParams::defaultFirmwareTcpConfig()
{
    inet::TcpConfig cfg;
    cfg.messageMode = true; // prototype subset: no OOO reassembly
    cfg.delayedAck = false; // SAN latency: ACK every message
    cfg.noDelay = true;
    cfg.mss = 16384;
    cfg.windowScale = 8;
    cfg.tsGranularity = sim::oneUs; // fine-grained firmware clock
    cfg.minRto = 5 * sim::oneMs;    // NIC-resident runtime timers
    cfg.maxRto = 10 * sim::oneSec;
    cfg.msl = 50 * sim::oneMs;      // SAN-scale TIME_WAIT
    cfg.initialCwndSegs = 4;
    cfg.maxCwndSegs = 256;
    return cfg;
}

// ---------------------------------------------------------------------
// Construction / management FSM
// ---------------------------------------------------------------------

QpipNic::QpipNic(sim::Simulation &sim, std::string name, net::Link &link,
                 net::NodeId node, QpipNicParams params)
    : SimObject(sim, std::move(name)), link_(link), node_(node),
      params_(params),
      fw_(sim, this->name() + ".fw", params.costs.freqHz),
      dmaIn_(sim, this->name() + ".dma_in", params.dma),
      dmaOut_(sim, this->name() + ".dma_out", params.dma),
      doorbells_(sim, this->name() + ".doorbells", params.doorbellCap),
      qpCache_(params.qpCacheCapacity),
      inet_(*this, params.reassExpiry),
      issRng_(sim::streamSeed(sim.seed(), this->name()))
{
    // Force the prototype's transport subset regardless of overrides.
    params_.tcp.messageMode = true;
    regStat("badPackets", inet_.badFrames);
    regStat("noQpDrops", inet_.noMatchDrops);
    regStat("udpNoWrDrops", udpNoWrDrops);
    regStat("cqOverflows", cqOverflows);
    regStat("rdma.writes", rdmaWrites);
    regStat("rdma.reads", rdmaReads);
    regStat("rdma.remoteErrors", rdmaRemoteErrors);
    regStat("rdma.malformed", rdmaMalformed);
    regStat("srq.rnrHolds", srqRnrHolds);
    regStat("srq.emptyDrops", srqEmptyDrops);
    regStat("rud.retransmits", rudRetransmits);
    regStat("rud.acksSent", rudAcksSent);
    regStat("rud.seqDrops", rudSeqDrops);
    regStat("rud.rnrHolds", rudRnrHolds);
    regStat("rud.malformed", rudMalformed);
    regStat("qpCache.hits", qpCache_.hits);
    regStat("qpCache.misses", qpCache_.misses);
    regStat("qpCache.evictions", qpCache_.evictions);
    regStat("qpCache.writebacks", ctxWritebacks);
    regStat("reass.fragmentsIn", inet_.reassembler().fragmentsIn);
    regStat("reass.reassembled", inet_.reassembler().reassembled);
    regStat("reass.expired", inet_.reassembler().expired);
    regStat("cq.notifies", cqNotifies);
    regStat("cq.coalesced", cqCoalesced);
    if (params_.doorbellCoalesceCycles > 0) {
        doorbells_.coalesceWindow =
            fw_.clock().cyclesToTicks(params_.doorbellCoalesceCycles);
    }
    rcEngine_ = std::make_unique<RcEngine>(*this);
    udEngine_ = std::make_unique<UdEngine>(*this);
    rudEngine_ = std::make_unique<RudEngine>(*this);
    link_.attach(0, *this);
    doorbells_.setDrainHook([this] {
        if (!drainActive_) {
            drainActive_ = true;
            doorbellDrain();
        }
    });
}

QpipNic::~QpipNic()
{
    // Expire the liveness token first: QueuePair/MemoryRegion
    // destructors reached from the QP contexts below must not call
    // back into this object.
    aliveToken_.reset();
}

TransportEngine &
QpipNic::engineFor(QpType type)
{
    switch (type) {
      case QpType::ReliableTcp: return *rcEngine_;
      case QpType::UnreliableUdp: return *udEngine_;
      case QpType::ReliableDatagram: return *rudEngine_;
    }
    sim::panic("engineFor: unknown qp type %d",
               static_cast<int>(type));
}

void
QpipNic::setAddress(const inet::InetAddr &addr)
{
    addr_ = addr;
}

MrKey
QpipNic::registerMemory(std::uint8_t *base, std::size_t bytes,
                        MrAccess access)
{
    fw_.charge(FwStage::Mgmt, params_.costs.mgmtCommand);
    return mrs_.registerMemory(base, bytes, access);
}

void
QpipNic::deregisterMemory(MrKey key)
{
    fw_.charge(FwStage::Mgmt, params_.costs.mgmtCommand);
    mrs_.deregister(key);
}

CqNum
QpipNic::createCq(CqRing *ring)
{
    const auto num = static_cast<CqNum>(cqs_.size());
    cqs_.push_back(CqSlot{ring, 0, {}});
    return num;
}

void
QpipNic::destroyCq(CqNum cq)
{
    if (!hasCq(cq))
        return;
    cqs_[cq].timer.cancel();
    cqs_[cq] = CqSlot{};
}

bool
QpipNic::hasCq(CqNum cq) const
{
    return cq < cqs_.size() && cqs_[cq].ring != nullptr;
}

void
QpipNic::disarmCqs()
{
    for (CqSlot &slot : cqs_) {
        if (slot.ring != nullptr)
            slot.ring->disarm();
    }
}

QpNum
QpipNic::createQp(QpType type, QpHostRings *rings, CqNum scq,
                  CqNum rcq, const QpCreateAttrs &attrs)
{
    fw_.charge(FwStage::Mgmt, params_.costs.mgmtCommand);
    const QpNum num = nextQpNum_++;
    auto ctx = std::make_unique<QpContext>(*this, num, type, rings,
                                           scq, rcq);
    if (attrs.srq != invalidSrq) {
        auto it = srqs_.find(attrs.srq);
        if (it == srqs_.end())
            sim::fatal("createQp: unknown srq %u", attrs.srq);
        ctx->srq = it->second.get();
        ctx->srq->wake.emplace(std::pair{ctx->wakeKey, num}, ctx.get());
    }
    if (attrs.rdmaWindowBytes > 0) {
        if (type != QpType::ReliableTcp)
            sim::fatal("createQp: RDMA framing needs a reliable QP");
        ctx->rdmaWindow = attrs.rdmaWindowBytes;
    }
    qps_.resize(static_cast<std::size_t>(num) + 1);
    qps_[num] = std::move(ctx);
    // The management FSM builds the context in SRAM; whatever it
    // displaces goes back to host memory.
    const auto ev = qpCache_.install(num);
    if (ev.evicted) {
        ctxWritebacks.inc();
        fw_.charge(FwStage::CtxFetch, ctxMissCycles(ev));
    }
    return num;
}

void
QpipNic::destroyQp(QpNum qp)
{
    auto *ctx = lookupQp(qp);
    if (ctx == nullptr)
        return;
    fw_.charge(FwStage::Mgmt, params_.costs.mgmtCommand);
    if (ctx->conn) {
        inet_.unregisterConn(ctx->conn->tuple());
        ctx->conn->abort();
    }
    if (ctx->bound)
        engineFor(ctx->type).unbound(*ctx);
    flushQp(*ctx, WcStatus::Flushed);
    if (ctx->srq != nullptr)
        ctx->srq->wake.erase({ctx->wakeKey, qp});
    qpCache_.remove(qp);
    qps_[qp].reset();
}

SrqNum
QpipNic::createSrq(SrqHostRing *ring)
{
    fw_.charge(FwStage::Mgmt, params_.costs.mgmtCommand);
    const SrqNum num = nextSrqNum_++;
    auto ctx = std::make_unique<SrqContext>();
    ctx->num = num;
    ctx->ring = ring;
    srqs_[num] = std::move(ctx);
    return num;
}

void
QpipNic::destroySrq(SrqNum srq)
{
    auto it = srqs_.find(srq);
    if (it == srqs_.end())
        return;
    if (!it->second->wake.empty())
        sim::fatal("destroySrq: srq %u still has %zu attached QPs",
                   srq, it->second->wake.size());
    fw_.charge(FwStage::Mgmt, params_.costs.mgmtCommand);
    srqs_.erase(it);
}

void
QpipNic::bindLocal(QpNum qp, std::uint16_t port)
{
    auto *ctx = lookupQp(qp);
    if (ctx == nullptr)
        sim::fatal("bindLocal: unknown qp %u", qp);
    fw_.charge(FwStage::Mgmt, params_.costs.mgmtCommand);
    ctx->local = inet::SockAddr{addr_, port};
    ctx->bound = true;
    engineFor(ctx->type).bound(*ctx);
}

void
QpipNic::connect(QpNum qp, const inet::SockAddr &remote, ConnectCb done)
{
    auto *ctx = lookupQp(qp);
    if (ctx == nullptr || ctx->type != QpType::ReliableTcp)
        sim::fatal("connect: bad qp %u", qp);
    if (!ctx->bound) {
        ctx->local = inet::SockAddr{addr_, ephemeralPort_++};
        ctx->bound = true;
    }
    ctx->connectDone = std::move(done);
    fw_.exec(FwStage::Mgmt, params_.costs.mgmtCommand,
             [this, qp, remote] {
                 QpContext *ctx = lookupQp(qp);
                 if (ctx == nullptr)
                     return; // destroyed while the firmware was busy
                 openConnection(*ctx, {ctx->local, remote});
                 ctx->conn->openActive(ctx->local, remote);
             });
}

void
QpipNic::openConnection(QpContext &ctx, const inet::FourTuple &t)
{
    // Destroy any previous connection first so its stat paths vacate
    // before the new one claims them.
    if (ctx.conn) {
        inet_.unregisterConn(ctx.conn->tuple());
        ctx.conn.reset();
    }
    ctx.conn = std::make_unique<inet::TcpConnection>(inet_, ctx,
                                                     params_.tcp);
    ctx.conn->stats().registerIn(
        statRegistry(), name() + ".qp" + std::to_string(ctx.num) + ".tcp");
    inet_.registerConn(t, ctx.conn.get());
}

void
QpipNic::acceptOn(std::uint16_t port, QpNum qp, AcceptCb done)
{
    auto *ctx = lookupQp(qp);
    if (ctx == nullptr || ctx->type != QpType::ReliableTcp)
        sim::fatal("acceptOn: bad qp %u", qp);
    fw_.charge(FwStage::Mgmt, params_.costs.mgmtCommand);
    ctx->acceptDone = std::move(done);
    listeners_[port].push_back(qp);
}

void
QpipNic::disconnect(QpNum qp)
{
    auto *ctx = lookupQp(qp);
    if (ctx == nullptr || !ctx->conn)
        return;
    fw_.exec(FwStage::Mgmt, params_.costs.mgmtCommand, [this, qp] {
        QpContext *ctx = lookupQp(qp);
        if (ctx != nullptr && ctx->conn)
            ctx->conn->close();
    });
}

QpipNic::QpContext *
QpipNic::lookupQp(QpNum qp)
{
    return qp < qps_.size() ? qps_[qp].get() : nullptr;
}

inet::TcpConnection *
QpipNic::connectionOf(QpNum qp)
{
    auto *ctx = lookupQp(qp);
    return ctx != nullptr ? ctx->conn.get() : nullptr;
}

std::size_t
QpipNic::queueSlots(QpNum qp)
{
    const auto *ctx = lookupQp(qp);
    if (ctx == nullptr)
        return 0;
    std::size_t slots =
        ctx->rings->sendQ.capacity() + ctx->rings->recvQ.capacity() +
        ctx->inflightSends.capacity() + ctx->pendingRdma.capacity();
    if (ctx->rud) {
        for (const auto &entry : ctx->rud->peers) {
            slots += entry.second.window.capacity() +
                     entry.second.blocked.capacity();
        }
    }
    return slots;
}

bool
QpipNic::hasRudState(QpNum qp)
{
    const auto *ctx = lookupQp(qp);
    return ctx != nullptr && ctx->rud != nullptr;
}

// ---------------------------------------------------------------------
// Doorbell FSM
// ---------------------------------------------------------------------

void
QpipNic::postDoorbell(QpNum qp, bool is_send, std::uint32_t wr_count)
{
    doorbells_.ring(Doorbell{qp, is_send, false, wr_count});
}

void
QpipNic::postSrqDoorbell(SrqNum srq, std::uint32_t wr_count)
{
    doorbells_.ring(Doorbell{srq, false, true, wr_count});
}

void
QpipNic::doorbellDrain()
{
    Doorbell db;
    if (!doorbells_.pop(db)) {
        drainActive_ = false;
        return;
    }
    sim::Cycles c = params_.costs.doorbellProcess;
    if (!params_.costs.hwDoorbell) {
        c = static_cast<sim::Cycles>(static_cast<double>(c) *
                                     params_.costs.swDoorbellFactor);
    }
    // A batch record (chained post, or rings folded by the coalescing
    // window) pays the full pass once plus a cheap per-WR increment.
    // Gated on the record's own count — a singleton record whose
    // drain happens to see several fresh WRs (burst of singleton
    // rings) keeps the legacy one-pass-per-record cost.
    if (db.wrCount > 1) {
        c += params_.costs.doorbellPerWr *
             static_cast<sim::Cycles>(db.wrCount - 1);
    }
    fw_.exec(FwStage::DoorbellProcess, c, [this, db] {
        if (db.isSrq) {
            auto it = srqs_.find(db.qp);
            if (it != srqs_.end()) {
                auto &srq = *it->second;
                const std::uint64_t total =
                    srq.consumed + srq.ring->recvQ.size();
                const std::uint64_t fresh = total - srq.seen;
                srq.seen = total;
                const auto &q = srq.ring->recvQ;
                for (std::uint64_t i = 0; i < fresh; ++i) {
                    const auto &wr = q[q.size() - fresh + i];
                    ++srq.postedCount;
                    srq.postedBytes += wr.sge.length;
                }
                if (fresh > 0)
                    replenishSrq(srq);
            }
        } else if (auto *ctx = lookupQp(db.qp); ctx != nullptr) {
            touchQpContext(db.qp);
            if (db.isSend) {
                const std::uint64_t total =
                    ctx->sendConsumed + ctx->rings->sendQ.size();
                const std::uint64_t fresh = total - ctx->sendSeen;
                ctx->sendSeen = total;
                if (db.wrCount > 1) {
                    // Batch record: one scheduler pass consumes the
                    // whole fresh run.
                    if (fresh > 0)
                        scheduleSendService(*ctx, fresh);
                } else {
                    for (std::uint64_t i = 0; i < fresh; ++i)
                        scheduleSendService(*ctx);
                }
            } else {
                const std::uint64_t total =
                    ctx->recvConsumed + ctx->rings->recvQ.size();
                const std::uint64_t fresh = total - ctx->recvSeen;
                ctx->recvSeen = total;
                // The new WRs sit at the back of the host ring.
                const auto &q = ctx->rings->recvQ;
                for (std::uint64_t i = 0; i < fresh; ++i) {
                    const auto &wr = q[q.size() - fresh + i];
                    ++ctx->postedRecvCount;
                    ctx->postedRecvBytes += wr.sge.length;
                }
                if (fresh > 0)
                    engineFor(ctx->type).recvReplenished(*ctx);
            }
        }
        doorbellDrain();
    });
}

void
QpipNic::replenishSrq(SrqContext &srq)
{
    // Take the woken set up front: deliveries during the sweep only
    // consume WRs, so postedBytes never rises mid-sweep and no QP left
    // out could act by the time its turn in attach order came. Taken
    // QPs that no longer qualify re-check and do nothing.
    std::vector<QpContext *> woken;
    for (const auto &[key, ctx] : srq.wake) {
        if (key.first > srq.postedBytes)
            break;
        woken.push_back(ctx);
    }
    std::sort(woken.begin(), woken.end(),
              [](const QpContext *a, const QpContext *b) {
                  return a->num < b->num;
              });
    for (auto *ctx : woken)
        engineFor(ctx->type).recvReplenished(*ctx);
}

void
QpipNic::rekeySrqWake(QpContext &qp)
{
    if (qp.srq == nullptr)
        return;
    const std::uint64_t key = engineFor(qp.type).replenishThreshold(qp);
    if (key == qp.wakeKey)
        return;
    auto node = qp.srq->wake.extract({qp.wakeKey, qp.num});
    node.key().first = key;
    qp.srq->wake.insert(std::move(node));
    qp.wakeKey = key;
}

void
QpipNic::touchQpContext(QpNum qp)
{
    const auto t = qpCache_.touch(qp);
    if (t.hit)
        return;
    if (t.evicted)
        ctxWritebacks.inc();
    fw_.charge(FwStage::CtxFetch, ctxMissCycles(t));
}

sim::Cycles
QpipNic::ctxMissCycles(const QpContextCache::Touch &t) const
{
    return (t.hit ? 0 : params_.costs.qpCtxFetch) +
           (t.evicted ? params_.costs.qpCtxWriteback : 0);
}

// ---------------------------------------------------------------------
// Scheduler / transmit FSM
// ---------------------------------------------------------------------

void
QpipNic::scheduleSendService(QpContext &qp, std::uint64_t run)
{
    // destroyQp() erases the context immediately, so deferred stages
    // capture the QP number and re-look-up, never a reference.
    // A batch doorbell record charges Schedule once for its whole
    // run; the service loop walks the WRs back to back (each Get WR
    // still pays its own stage, and each re-validates the QP).
    fw_.exec(FwStage::Schedule, params_.costs.schedule,
             [this, qpn = qp.num, run] {
                 for (std::uint64_t i = 0; i < run; ++i) {
                     QpContext *ctx = lookupQp(qpn);
                     if (ctx == nullptr)
                         return;
                     serviceSendWr(*ctx);
                 }
             });
}

void
QpipNic::serviceSendWr(QpContext &qp)
{
    fw_.exec(FwStage::GetWr, params_.costs.getWr, [this,
                                                   qpn = qp.num] {
        QpContext *ctx = lookupQp(qpn);
        if (ctx == nullptr || ctx->rings->sendQ.empty())
            return; // raced with destroy/flush
        QpContext &qp = *ctx;
        SendWr wr = qp.rings->sendQ.front();
        qp.rings->sendQ.pop_front();
        ++qp.sendConsumed;
        touchQpContext(qp.num);

        if (wr.opcode != WrOpcode::Send &&
            (qp.type != QpType::ReliableTcp || qp.rdmaWindow == 0)) {
            sim::panic("qp%u: one-sided WR on a non-RDMA QP", qp.num);
        }

        if (wr.opcode == WrOpcode::RdmaRead) {
            rcEngine_->serviceRdmaRead(qp, std::move(wr));
            return;
        }

        std::uint8_t *src = mrs_.resolve(wr.sge);
        // A Write whose framed message exceeds the peer's standing
        // one-sided window could never leave the send queue (the
        // receiver posts no WRs for it); fail it deterministically.
        const bool oversize =
            wr.opcode == WrOpcode::RdmaWrite &&
            net::rdmaHeaderBytes(net::RdmaOpcode::Write) +
                    wr.sge.length >
                qp.rdmaWindow;
        if (src == nullptr || oversize) {
            completeSend(qp, wr, WcStatus::LengthError);
            return;
        }

        // Get Data: program the DMA engine, then stage the payload
        // from host memory into NIC SRAM. The firmware is occupied
        // for the descriptor work plus whichever of (SRAM staging,
        // DMA transfer) dominates.
        const std::size_t len = wr.sge.length;
        const Tick begin = std::max(curTick(), fw_.busyUntil());
        const Tick fixed = fw_.clock().cyclesToTicks(
            params_.costs.getDataFixed);
        const Tick touch = fw_.clock().cyclesToTicks(
            static_cast<sim::Cycles>(params_.costs.touchPerByte *
                                     static_cast<double>(len)));
        const Tick dma = dmaIn_.chargeAt(begin, len) - begin;
        fw_.chargeTicks(FwStage::GetData,
                        fixed + std::max(touch, dma));

        std::vector<std::uint8_t> data(src, src + len);
        schedule(fw_.busyUntil(),
                 [this, qpn, wr = std::move(wr),
                  data = std::move(data)]() mutable {
                     if (QpContext *c = lookupQp(qpn))
                         engineFor(c->type).transmit(
                             *c, std::move(wr), std::move(data));
                 });
    });
}

void
QpipNic::emitTcpSegment(IpDatagram &&dgram, const inet::TcpSegMeta &meta)
{
    // Pure ACKs and scheduler-driven retransmits pass the notify and
    // schedule stages too (the paper's Table 2 "ACK Send" column).
    if (meta.pureAck || meta.retransmit) {
        fw_.charge(FwStage::DoorbellProcess,
                   params_.costs.doorbellProcess);
        fw_.charge(FwStage::Schedule, params_.costs.schedule);
    }
    fw_.charge(FwStage::BuildTcpHdr, params_.costs.buildTcpHdr);
    inet_.ipOutput(std::move(dgram));
    fw_.charge(FwStage::UpdateTx, meta.pureAck
                                      ? params_.costs.updateTxAck
                                      : params_.costs.updateTxData);
}

std::optional<std::uint32_t>
QpipNic::txMtu(net::NodeId)
{
    // Single interface: the NIC's link MTU regardless of next hop.
    return link_.config().mtu;
}

void
QpipNic::chargeIpHeaderTx()
{
    fw_.charge(FwStage::BuildIpHdr, params_.costs.buildIpHdr);
}

void
QpipNic::chargeFragmentsTx(std::size_t extra)
{
    fw_.charge(FwStage::Fragment,
               params_.costs.perFragmentTx *
                   static_cast<sim::Cycles>(extra));
}

void
QpipNic::chargeMediaSend()
{
    fw_.charge(FwStage::MediaSend, params_.costs.mediaSend);
}

void
QpipNic::wireTx(std::span<std::vector<std::uint8_t>> frames, bool ipv6,
                net::NodeId dst_node)
{
    for (auto &frame : frames)
        txFrames_.push_back(std::move(frame));
    schedule(fw_.busyUntil(),
             [this, ipv6, dst_node, n = frames.size()] {
                 for (std::size_t i = 0; i < n; ++i) {
                     auto pkt = net::makePacket();
                     pkt->src = node_;
                     pkt->dst = dst_node;
                     pkt->proto = ipv6 ? net::NetProto::Ipv6
                                       : net::NetProto::Ipv4;
                     pkt->data = std::move(txFrames_.front());
                     txFrames_.pop_front();
                     link_.send(0, pkt);
                 }
             });
}

// ---------------------------------------------------------------------
// Receive FSM
// ---------------------------------------------------------------------

void
QpipNic::onPacket(net::PacketPtr pkt)
{
    fw_.exec(FwStage::MediaRcv, params_.costs.mediaRcv,
             [this, pkt] { inet_.wireInput(pkt->proto, pkt->data); });
}

void
QpipNic::chargeRxFrame(std::size_t wire_bytes)
{
    if (!params_.costs.hwChecksumRx) {
        fw_.charge(FwStage::Checksum,
                   params_.costs.fwChecksumFixed +
                       static_cast<sim::Cycles>(
                           params_.costs.fwChecksumPerByte *
                           static_cast<double>(wire_bytes)));
    }
}

void
QpipNic::chargeIpParsed(bool fragment)
{
    sim::Cycles ip_cycles = params_.costs.ipParse;
    if (fragment)
        ip_cycles += params_.costs.perFragmentRx;
    fw_.charge(FwStage::IpParse, ip_cycles);
    if (fragment)
        fw_.charge(FwStage::Reassembly, 0); // stage marker only
}

void
QpipNic::chargeTcpInput(std::size_t, bool pure_ack)
{
    sim::Cycles c = params_.costs.tcpParseData;
    if (pure_ack && !params_.costs.hwMultiply)
        c += params_.costs.tcpParseAckExtra;
    if (params_.costs.hwDemux) {
        const sim::Cycles demux = FirmwareCostModel::us(1.5);
        c = c > demux ? c - demux : 0;
    }
    fw_.charge(FwStage::TcpParse, c);
}

void
QpipNic::chargeUdpPreParse()
{
    fw_.charge(FwStage::UdpParse, params_.costs.udpParse);
}

bool
QpipNic::tcpAccept(const inet::FourTuple &t, const inet::TcpHeader &syn)
{
    // Connection rendezvous: mate an incoming SYN to an idle QP the
    // host queued on this monitored port. A parked QP destroyed since
    // is skipped.
    auto lit = listeners_.find(syn.dstPort);
    if (lit == listeners_.end())
        return false;
    QpContext *ctx = nullptr;
    while (ctx == nullptr && !lit->second.empty()) {
        ctx = lookupQp(lit->second.front());
        lit->second.pop_front();
    }
    if (ctx == nullptr)
        return false;
    ctx->local = t.local;
    ctx->bound = true;
    openConnection(*ctx, t);
    ctx->conn->openPassive(t.local, t.remote, syn);
    return true;
}

void
QpipNic::receiveIntoWr(QpContext &qp, std::vector<std::uint8_t> msg,
                       const inet::SockAddr &from)
{
    touchQpContext(qp.num);
    RecvWr wr;
    if (qp.srq != nullptr) {
        auto &srq = *qp.srq;
        if (srq.postedCount == 0 || srq.ring->recvQ.empty())
            sim::panic("receiveIntoWr without a posted SRQ WR");
        wr = srq.ring->recvQ.front();
        srq.ring->recvQ.pop_front();
        ++srq.consumed;
        --srq.postedCount;
        srq.postedBytes -= wr.sge.length;
    } else {
        if (qp.postedRecvCount == 0 || qp.rings->recvQ.empty())
            sim::panic("receiveIntoWr without a posted WR");
        wr = qp.rings->recvQ.front();
        qp.rings->recvQ.pop_front();
        ++qp.recvConsumed;
        --qp.postedRecvCount;
        qp.postedRecvBytes -= wr.sge.length;
    }

    fw_.exec(FwStage::GetWr, params_.costs.getWr,
             [this, qpn = qp.num, wr, msg = std::move(msg),
              from]() mutable {
                 QpContext *ctx = lookupQp(qpn);
                 if (ctx == nullptr)
                     return; // destroyed while the firmware was busy
                 QpContext &qp = *ctx;
                 std::uint8_t *dst = mrs_.resolve(wr.sge);
                 Completion c;
                 c.wrId = wr.id;
                 c.qp = qp.num;
                 c.isSend = false;
                 c.from = from;
                 if (dst == nullptr || msg.size() > wr.sge.length) {
                     c.status = WcStatus::LengthError;
                     c.byteLen = msg.size();
                     fw_.charge(FwStage::UpdateRx,
                                params_.costs.updateRxData);
                     pushCompletion(qp.rcq, c);
                     return;
                 }
                 // Put Data: DMA from NIC SRAM into the posted
                 // buffer (same shape as Get Data).
                 const Tick begin =
                     std::max(curTick(), fw_.busyUntil());
                 const Tick fixed = fw_.clock().cyclesToTicks(
                     params_.costs.putDataFixed);
                 const Tick touch = fw_.clock().cyclesToTicks(
                     static_cast<sim::Cycles>(
                         params_.costs.touchPerByte *
                         static_cast<double>(msg.size())));
                 const Tick dma =
                     dmaOut_.chargeAt(begin, msg.size()) - begin;
                 fw_.chargeTicks(FwStage::PutData,
                                 fixed + std::max(touch, dma));
                 std::copy(msg.begin(), msg.end(), dst);
                 c.status = WcStatus::Success;
                 c.byteLen = msg.size();
                 fw_.charge(FwStage::UpdateRx,
                            params_.costs.updateRxData);
                 pushCompletion(qp.rcq, c);
             });
}

// ---------------------------------------------------------------------
// Completions, teardown, env services
// ---------------------------------------------------------------------

void
QpipNic::pushCompletion(CqNum cq, Completion c)
{
    if (cq == invalidCq)
        return;
    const sim::Tick at = std::max(curTick(), fw_.busyUntil());
    c.completedAt = at;
    schedule(at, [this, cq, c] {
        if (!hasCq(cq))
            return; // the CQ was destroyed: the entry has nowhere to go
        CqSlot &slot = cqs_[cq];
        // Moderation defers the armed-notify upcall until enough
        // CQEs accumulate (or the timeout below fires). Only pushes
        // that would have notified — armed CQ — count toward the
        // threshold; an unarmed CQ means the host is polling and no
        // event was owed.
        const bool moderate = params_.cqModerationCount > 1;
        const bool wasArmed = slot.ring->armed();
        if (!slot.ring->push(c, moderate)) {
            cqOverflows.inc();
            return;
        }
        if (!moderate) {
            if (wasArmed)
                cqNotifies.inc();
            return;
        }
        if (!wasArmed)
            return;
        ++slot.pending;
        if (slot.pending >= params_.cqModerationCount) {
            cqKick(cq);
            return;
        }
        cqCoalesced.inc();
        if (slot.pending == 1 && params_.cqModerationCycles > 0) {
            // destroyCq() cancels it, so the slot is live when it runs.
            slot.timer = scheduleIn(
                fw_.clock().cyclesToTicks(params_.cqModerationCycles),
                [this, cq] { cqKick(cq); });
        }
    });
}

void
QpipNic::completeSend(QpContext &qp, const SendWr &wr, WcStatus status,
                      std::size_t byte_len)
{
    Completion c;
    c.wrId = wr.id;
    c.qp = qp.num;
    c.isSend = true;
    c.opcode = wr.opcode;
    c.status = status;
    c.byteLen = byte_len;
    pushCompletion(qp.scq, c);
}

void
QpipNic::cqKick(CqNum cq)
{
    CqSlot &slot = cqs_[cq];
    slot.pending = 0;
    if (slot.timer.pending())
        slot.timer.cancel();
    if (slot.ring->armed() && !slot.ring->empty()) {
        cqNotifies.inc();
        slot.ring->notifyNow();
    }
}

void
QpipNic::flushQp(QpContext &qp, WcStatus status)
{
    // Transport-held WRs (RUD unacked windows, blocked sends) flush
    // first so their completions precede the ring sweeps below.
    engineFor(qp.type).flushed(qp, status);
    while (!qp.inflightSends.empty()) {
        QpContext::Inflight fly = std::move(qp.inflightSends.front());
        qp.inflightSends.pop_front();
        // RdmaReq entries complete via pendingRdma (below); firmware
        // responses never surface a completion.
        if (fly.kind != QpContext::TxKind::Send)
            continue;
        completeSend(qp, fly.wr, status);
    }
    while (!qp.pendingRdma.empty()) {
        SendWr wr = std::move(qp.pendingRdma.front().second);
        qp.pendingRdma.pop_front();
        completeSend(qp, wr, status);
    }
    while (!qp.rings->sendQ.empty()) {
        SendWr wr = qp.rings->sendQ.front();
        qp.rings->sendQ.pop_front();
        ++qp.sendConsumed;
        if (qp.sendSeen < qp.sendConsumed)
            qp.sendSeen = qp.sendConsumed;
        completeSend(qp, wr, status);
    }
    while (!qp.rings->recvQ.empty()) {
        RecvWr wr = qp.rings->recvQ.front();
        qp.rings->recvQ.pop_front();
        ++qp.recvConsumed;
        Completion c;
        c.wrId = wr.id;
        c.qp = qp.num;
        c.isSend = false;
        c.status = status;
        pushCompletion(qp.rcq, c);
    }
    qp.postedRecvCount = 0;
    qp.postedRecvBytes = 0;
    qp.recvSeen = qp.recvConsumed;
}

sim::Tick
QpipNic::now()
{
    return curTick();
}

sim::EventHandle
QpipNic::scheduleTimer(sim::Tick delay, std::function<void()> fn)
{
    return scheduleIn(delay, [this, fn = std::move(fn)]() mutable {
        fw_.charge(FwStage::Timer, params_.costs.timerService);
        fn();
    });
}

std::uint32_t
QpipNic::randomIss()
{
    return static_cast<std::uint32_t>(issRng_.next());
}

const std::string &
QpipNic::inetName() const
{
    return name();
}

void
QpipNic::connectionClosed(inet::TcpConnection &)
{
    // The engine already dropped the PCB entry, and the QpContext
    // keeps the connection object until the QP is destroyed: nothing
    // else refers to it.
}

sim::Tracer *
QpipNic::tracer()
{
    return &SimObject::tracer();
}

} // namespace qpip::nic
