#include "inet/tcp_conn.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace qpip::inet {

using sim::Tick;

const char *
tcpStateName(TcpState s)
{
    switch (s) {
      case TcpState::Closed: return "Closed";
      case TcpState::SynSent: return "SynSent";
      case TcpState::SynRcvd: return "SynRcvd";
      case TcpState::Established: return "Established";
      case TcpState::FinWait1: return "FinWait1";
      case TcpState::FinWait2: return "FinWait2";
      case TcpState::CloseWait: return "CloseWait";
      case TcpState::Closing: return "Closing";
      case TcpState::LastAck: return "LastAck";
      case TcpState::TimeWait: return "TimeWait";
    }
    return "?";
}

void
TcpStats::registerIn(sim::StatRegistry &registry, std::string prefix)
{
    static const sim::StatTable<TcpStats> table = [] {
        sim::StatTable<TcpStats> t;
        t.add("segsOut", &TcpStats::segsOut);
        t.add("segsIn", &TcpStats::segsIn);
        t.add("bytesOut", &TcpStats::bytesOut);
        t.add("bytesIn", &TcpStats::bytesIn);
        t.add("retransmits", &TcpStats::retransmits);
        t.add("fastRetransmits", &TcpStats::fastRetransmits);
        t.add("timeouts", &TcpStats::timeouts);
        t.add("dupAcksIn", &TcpStats::dupAcksIn);
        t.add("oooSegments", &TcpStats::oooSegments);
        t.add("oooDropped", &TcpStats::oooDropped);
        t.add("hdrPredicted", &TcpStats::hdrPredicted);
        t.add("msgRefused", &TcpStats::msgRefused);
        t.add("persistProbes", &TcpStats::persistProbes);
        t.add("badSegments", &TcpStats::badSegments);
        return t;
    }();
    group_.clear();
    group_.init(registry, std::move(prefix), table, *this);
}

TcpConnection::TcpConnection(TcpEnv &env, TcpObserver &observer,
                             const TcpConfig &config)
    : env_(env), observer_(observer), cfg_(config),
      rtt_(config.minRto, config.maxRto),
      mode_(config.messageMode ? decltype(mode_)(MessageState{})
                               : decltype(mode_)(StreamState{}))
{}

void
TcpConnection::transition(TcpState next)
{
    const TcpState prev = state_;
    state_ = next;
    if (prev == next)
        return;
    receiveStateChanged();
    sim::Tracer *tr = env_.tracer();
    if (tr != nullptr && tr->enabled()) {
        tr->instant("tcp",
                    std::string(tcpStateName(prev)) + "->" +
                        tcpStateName(next),
                    env_.now(),
                    sim::strfmt("{\"lport\": %u, \"rport\": %u}",
                                tuple_.local.port, tuple_.remote.port));
    }
}

TcpConnection::~TcpConnection()
{
    rtxTimer_.cancel();
    delAckTimer_.cancel();
    persistTimer_.cancel();
    timeWaitTimer_.cancel();
}

std::size_t
TcpConnection::queueSlots() const
{
    return cfg_.messageMode ? msgs().sendQueue.capacity()
                            : stream().sndBuf.chunkSlots();
}

bool
TcpConnection::holdingMessage() const
{
    return cfg_.messageMode && msgs().holding;
}

std::uint32_t
TcpConnection::effMss() const
{
    return std::min(cfg_.mss, static_cast<std::uint32_t>(peerMss_));
}

std::uint32_t
TcpConnection::tsNow() const
{
    return static_cast<std::uint32_t>(env_.now() / cfg_.tsGranularity);
}

// --------------------------------------------------------------------
// Open paths
// --------------------------------------------------------------------

void
TcpConnection::openActive(const SockAddr &local, const SockAddr &remote)
{
    tuple_ = FourTuple{local, remote};
    iss_ = env_.randomIss();
    sndUna_ = iss_;
    sndNxt_ = iss_ + 1;
    sndMaxSeen_ = sndNxt_;
    transition(TcpState::SynSent);

    OutSpec syn;
    syn.seq = iss_;
    syn.flags = tcpflags::syn;
    syn.withOptionsForSyn = true;
    emitSegment(syn);
    armRtxTimer();
}

void
TcpConnection::openPassive(const SockAddr &local, const SockAddr &remote,
                           const TcpHeader &syn)
{
    tuple_ = FourTuple{local, remote};
    irs_ = syn.seq;
    rcvNxt_ = irs_ + 1;
    iss_ = env_.randomIss();
    sndUna_ = iss_;
    sndNxt_ = iss_ + 1;
    sndMaxSeen_ = sndNxt_;

    tsEnabled_ = cfg_.useTimestamps && syn.timestamps.has_value();
    if (tsEnabled_)
        tsRecent_ = syn.timestamps->value;
    wsEnabled_ = cfg_.useWindowScale && syn.wscale.has_value();
    if (wsEnabled_) {
        sndScale_ = *syn.wscale;
        rcvScale_ = cfg_.windowScale;
    }
    peerMss_ = syn.mss.value_or(536);
    // Window field in a SYN is never scaled.
    sndWnd_ = syn.wnd;
    sndWl1_ = syn.seq;
    sndWl2_ = iss_;

    transition(TcpState::SynRcvd);
    OutSpec synack;
    synack.seq = iss_;
    synack.flags = tcpflags::syn | tcpflags::ack;
    synack.withOptionsForSyn = true;
    emitSegment(synack);
    armRtxTimer();
}

// --------------------------------------------------------------------
// User send interface
// --------------------------------------------------------------------

std::size_t
TcpConnection::sendSpace() const
{
    const std::size_t used = stream().sndBuf.size();
    return used >= cfg_.sendBufBytes ? 0 : cfg_.sendBufBytes - used;
}

std::size_t
TcpConnection::send(std::span<const std::uint8_t> data)
{
    if (cfg_.messageMode)
        sim::panic("stream send() on a message-mode connection");
    if (finQueued_ || state_ == TcpState::Closed)
        return 0;
    const std::size_t n = std::min(data.size(), sendSpace());
    if (n == 0)
        return 0;
    stream().sndBuf.append(data.subspan(0, n));
    if (established() || state_ == TcpState::CloseWait)
        trySend();
    return n;
}

void
TcpConnection::sendMessage(std::vector<std::uint8_t> data,
                           std::uint64_t tag)
{
    if (!cfg_.messageMode)
        sim::panic("sendMessage() on a stream-mode connection");
    if (data.empty())
        sim::panic("empty TCP message");
    PendingMsg msg;
    msg.data = std::move(data);
    msg.tag = tag;
    msgs().sendQueue.push_back(std::move(msg));
    if (established() || state_ == TcpState::CloseWait)
        trySend();
}

void
TcpConnection::close()
{
    if (finQueued_ || state_ == TcpState::Closed)
        return;
    if (state_ == TcpState::SynSent) {
        // Nothing on the wire worth finishing.
        toClosed(false);
        return;
    }
    finQueued_ = true;
    maybeSendFin();
}

void
TcpConnection::abort()
{
    if (state_ != TcpState::Closed && state_ != TcpState::SynSent)
        sendRst(sndNxt_, rcvNxt_, true);
    toClosed(false);
}

// --------------------------------------------------------------------
// Segment emission
// --------------------------------------------------------------------

std::uint32_t
TcpConnection::currentAdvertiseWindow()
{
    std::uint32_t w = observer_.receiveWindow(*this);
    const std::uint32_t cap = wsEnabled_
        ? (std::uint32_t(65535) << rcvScale_)
        : 65535;
    w = std::min(w, cap);
    // Never shrink the advertised right edge (RFC 793 SHLD).
    const std::uint32_t edge = rcvNxt_ + w;
    if (state_ != TcpState::SynSent && state_ != TcpState::Closed &&
        rcvAdvertised_ != 0 && seqLt(edge, rcvAdvertised_)) {
        w = rcvAdvertised_ - rcvNxt_;
    }
    return w;
}

void
TcpConnection::emitSegment(const OutSpec &spec)
{
    TcpHeader hdr;
    hdr.srcPort = tuple_.local.port;
    hdr.dstPort = tuple_.remote.port;
    hdr.seq = spec.seq;
    hdr.flags = spec.flags;
    if (hdr.has(tcpflags::ack))
        hdr.ack = rcvNxt_;

    const std::uint32_t adv = currentAdvertiseWindow();
    if (hdr.has(tcpflags::syn)) {
        hdr.wnd = static_cast<std::uint16_t>(std::min<std::uint32_t>(
            adv, 65535));
        if (spec.withOptionsForSyn) {
            hdr.mss = static_cast<std::uint16_t>(
                std::min<std::uint32_t>(cfg_.mss, 65535));
            if (cfg_.useWindowScale)
                hdr.wscale = cfg_.windowScale;
            const bool offer_ts = (state_ == TcpState::SynSent)
                ? cfg_.useTimestamps
                : tsEnabled_;
            if (offer_ts)
                hdr.timestamps = TcpTimestamps{tsNow(), tsRecent_};
        }
    } else {
        // Round up to the scale granularity: a small nonzero window
        // (e.g. one posted 1-byte buffer) must not quantize to zero.
        const std::uint32_t gran = std::uint32_t(1) << rcvScale_;
        const std::uint32_t scaled =
            adv == 0 ? 0 : (adv + gran - 1) >> rcvScale_;
        hdr.wnd = static_cast<std::uint16_t>(
            std::min<std::uint32_t>(scaled, 65535));
        if (tsEnabled_)
            hdr.timestamps = TcpTimestamps{tsNow(), tsRecent_};
        rcvAdvertised_ =
            rcvNxt_ + (std::uint32_t(hdr.wnd) << rcvScale_);
    }
    if (hdr.has(tcpflags::syn))
        rcvAdvertised_ = rcvNxt_ + adv;
    receiveStateChanged();

    IpDatagram dgram;
    dgram.src = tuple_.local.addr;
    dgram.dst = tuple_.remote.addr;
    dgram.proto = IpProto::Tcp;
    dgram.payload = serializeTcp(tuple_.local.addr, tuple_.remote.addr,
                                 hdr, spec.payload);

    TcpSegMeta meta;
    meta.flags = hdr.flags;
    meta.payloadBytes = spec.payload.size();
    meta.retransmit = spec.retransmit;
    meta.pureAck = spec.payload.empty() &&
                   !(hdr.flags &
                     (tcpflags::syn | tcpflags::fin | tcpflags::rst));

    stats_.segsOut.inc();
    stats_.bytesOut.inc(spec.payload.size());
    if (spec.retransmit)
        stats_.retransmits.inc();

    // Any segment carrying our current rcvNxt_ acknowledges received
    // data; reset delayed-ACK machinery.
    if (hdr.has(tcpflags::ack)) {
        delAckTimer_.cancel();
        unackedSegsSinceAck_ = 0;
    }

    // Start an RTT timing on fresh data if idle (Karn fallback when
    // timestamps are off).
    if (!tsEnabled_ && !rttTiming_ && !spec.retransmit &&
        !spec.payload.empty()) {
        rttTiming_ = true;
        rttSeq_ = spec.seq;
        rttStamp_ = env_.now();
        retransmittedSinceTiming_ = false;
    }
    if (spec.retransmit)
        retransmittedSinceTiming_ = true;

    env_.tcpOutput(std::move(dgram), meta);
}

void
TcpConnection::sendAck()
{
    OutSpec ack;
    ack.seq = sndNxt_;
    ack.flags = tcpflags::ack;
    emitSegment(ack);
}

void
TcpConnection::sendRst(std::uint32_t seq, std::uint32_t ack, bool with_ack)
{
    TcpHeader hdr;
    hdr.srcPort = tuple_.local.port;
    hdr.dstPort = tuple_.remote.port;
    hdr.seq = seq;
    hdr.flags = tcpflags::rst;
    if (with_ack) {
        hdr.flags |= tcpflags::ack;
        hdr.ack = ack;
    }
    IpDatagram dgram;
    dgram.src = tuple_.local.addr;
    dgram.dst = tuple_.remote.addr;
    dgram.proto = IpProto::Tcp;
    dgram.payload =
        serializeTcp(tuple_.local.addr, tuple_.remote.addr, hdr, {});
    TcpSegMeta meta;
    meta.flags = hdr.flags;
    stats_.segsOut.inc();
    env_.tcpOutput(std::move(dgram), meta);
}

// --------------------------------------------------------------------
// Transmit scheduling
// --------------------------------------------------------------------

std::uint32_t
TcpConnection::usableWindowBytes() const
{
    const std::uint32_t wnd = std::min(cwnd_, sndWnd_);
    const std::uint32_t inflight = sndNxt_ - sndUna_;
    return wnd > inflight ? wnd - inflight : 0;
}

void
TcpConnection::trySend(bool force_one)
{
    if (state_ != TcpState::Established &&
        state_ != TcpState::CloseWait && state_ != TcpState::FinWait1 &&
        state_ != TcpState::Closing && state_ != TcpState::LastAck) {
        return;
    }
    if (cfg_.messageMode)
        trySendMessages();
    else
        trySendStream();
    (void)force_one;
    maybeSendFin();
}

void
TcpConnection::trySendStream()
{
    const std::uint32_t mss = effMss();
    StreamState &st = stream();
    while (true) {
        const std::uint32_t inflight = sndNxt_ - sndUna_;
        if (st.sndBuf.size() < inflight)
            sim::panic("send buffer behind sndNxt");
        const std::size_t avail = st.sndBuf.size() - inflight;
        if (avail == 0)
            break;
        const std::uint32_t usable = usableWindowBytes();
        std::size_t len = std::min<std::size_t>({mss, avail, usable});
        if (len == 0) {
            if (sndWnd_ == 0 && inflight == 0)
                armPersist();
            break;
        }
        // Nagle / silly-window avoidance: don't emit a short segment
        // while data is outstanding unless it empties the buffer with
        // NODELAY set.
        if (len < mss && inflight > 0) {
            const bool closes_buffer = len == avail && cfg_.noDelay;
            if (!closes_buffer)
                break;
        }

        st.segScratch.resize(len);
        st.sndBuf.copyOut(inflight, len, st.segScratch.data());

        OutSpec spec;
        spec.seq = sndNxt_;
        spec.flags = tcpflags::ack;
        if (len == avail)
            spec.flags |= tcpflags::psh;
        spec.payload = st.segScratch;
        sndNxt_ += static_cast<std::uint32_t>(len);
        if (seqGt(sndNxt_, sndMaxSeen_))
            sndMaxSeen_ = sndNxt_;
        emitSegment(spec);
        armRtxTimer();
    }
}

void
TcpConnection::trySendMessages()
{
    MessageState &ms = msgs();
    while (ms.firstUnsent < ms.sendQueue.size()) {
        if (ms.firstUnsent >= cwndSegs_)
            break; // entries [0, firstUnsent) are all in flight
        PendingMsg &msg = ms.sendQueue[ms.firstUnsent];
        const std::uint32_t inflight = sndNxt_ - sndUna_;
        const std::uint32_t room =
            sndWnd_ > inflight ? sndWnd_ - inflight : 0;
        if (msg.data.size() > room) {
            if (inflight == 0)
                armPersist();
            break;
        }
        msg.seqStart = sndNxt_;
        msg.sent = true;
        OutSpec spec;
        spec.seq = sndNxt_;
        spec.flags = tcpflags::ack | tcpflags::psh;
        spec.payload = msg.data;
        sndNxt_ += static_cast<std::uint32_t>(msg.data.size());
        if (seqGt(sndNxt_, sndMaxSeen_))
            sndMaxSeen_ = sndNxt_;
        ++ms.firstUnsent;
        emitSegment(spec);
        armRtxTimer();
    }
}

void
TcpConnection::maybeSendFin()
{
    if (!finQueued_ || finSent_)
        return;
    // All queued data must be on the wire first.
    const std::uint32_t inflight = sndNxt_ - sndUna_;
    const bool drained =
        cfg_.messageMode
            ? msgs().firstUnsent == msgs().sendQueue.size()
            : stream().sndBuf.size() == inflight;
    if (!drained)
        return;

    finSeq_ = sndNxt_;
    finSent_ = true;
    OutSpec fin;
    fin.seq = sndNxt_;
    fin.flags = tcpflags::fin | tcpflags::ack;
    sndNxt_ += 1;
    if (seqGt(sndNxt_, sndMaxSeen_))
        sndMaxSeen_ = sndNxt_;

    if (state_ == TcpState::Established)
        transition(TcpState::FinWait1);
    else if (state_ == TcpState::CloseWait)
        transition(TcpState::LastAck);

    emitSegment(fin);
    armRtxTimer();
}

// --------------------------------------------------------------------
// Timers
// --------------------------------------------------------------------

void
TcpConnection::armRtxTimer()
{
    const bool outstanding =
        sndNxt_ != sndUna_ || state_ == TcpState::SynSent ||
        state_ == TcpState::SynRcvd;
    if (!outstanding) {
        cancelRtxTimer();
        return;
    }
    if (rtxTimer_.pending())
        return;
    rtxTimer_ = env_.scheduleTimer(rtt_.rto(), [this] {
        onRtxTimeout();
    });
}

void
TcpConnection::cancelRtxTimer()
{
    rtxTimer_.cancel();
}

void
TcpConnection::onRtxTimeout()
{
    stats_.timeouts.inc();
    ++rtxRetries_;
    rtt_.backoff();
    retransmittedSinceTiming_ = true;
    rttTiming_ = false;
    dupAcks_ = 0;
    // RTO recovery also retransmits the old window NewReno-style.
    inRecovery_ = true;
    recover_ = sndNxt_;

    if (state_ == TcpState::SynSent || state_ == TcpState::SynRcvd) {
        if (rtxRetries_ > cfg_.maxSynRetries) {
            toClosed(true);
            return;
        }
        OutSpec syn;
        syn.seq = iss_;
        syn.flags = (state_ == TcpState::SynSent)
            ? tcpflags::syn
            : static_cast<std::uint8_t>(tcpflags::syn | tcpflags::ack);
        syn.withOptionsForSyn = true;
        syn.retransmit = true;
        emitSegment(syn);
        armRtxTimer();
        return;
    }

    if (rtxRetries_ > cfg_.maxRtxRetries) {
        sendRst(sndNxt_, rcvNxt_, true);
        toClosed(true);
        return;
    }

    onLossDetected(true);
    retransmitOldest();
    armRtxTimer();
}

void
TcpConnection::armDelAck()
{
    if (delAckTimer_.pending())
        return;
    delAckTimer_ = env_.scheduleTimer(cfg_.delAckTimeout, [this] {
        onDelAckTimeout();
    });
}

void
TcpConnection::onDelAckTimeout()
{
    if (unackedSegsSinceAck_ > 0)
        sendAck();
}

void
TcpConnection::armPersist()
{
    if (persistTimer_.pending() || rtxTimer_.pending())
        return;
    persistTimer_ = env_.scheduleTimer(cfg_.persistInterval, [this] {
        onPersistTimeout();
    });
}

void
TcpConnection::onPersistTimeout()
{
    // Probe whenever data is waiting and the window cannot take the
    // next chunk — a tiny-but-nonzero window blocks a whole message
    // (or an MSS) just as thoroughly as a zero one.
    const std::uint32_t inflight = sndNxt_ - sndUna_;
    const std::uint32_t room =
        sndWnd_ > inflight ? sndWnd_ - inflight : 0;
    bool blocked = false;
    if (cfg_.messageMode) {
        const MessageState &ms = msgs();
        blocked = ms.firstUnsent < ms.sendQueue.size() &&
                  ms.sendQueue[ms.firstUnsent].data.size() > room;
    } else {
        blocked = stream().sndBuf.size() > inflight && room == 0;
    }
    if (!blocked) {
        trySend();
        return;
    }
    stats_.persistProbes.inc();
    // BSD-style probe: one garbage byte below sndUna_ forces a
    // duplicate-data ACK carrying the peer's current window.
    static const std::uint8_t garbage[1] = {0};
    OutSpec probe;
    probe.seq = sndUna_ - 1;
    probe.flags = tcpflags::ack;
    probe.payload = std::span<const std::uint8_t>(garbage, 1);
    probe.retransmit = true;
    emitSegment(probe);
    armPersist();
}

void
TcpConnection::enterTimeWait()
{
    transition(TcpState::TimeWait);
    cancelRtxTimer();
    timeWaitTimer_.cancel();
    timeWaitTimer_ = env_.scheduleTimer(2 * cfg_.msl, [this] {
        toClosed(false);
    });
}

// --------------------------------------------------------------------
// Receive path
// --------------------------------------------------------------------

bool
TcpConnection::headerPredicted(const TcpHeader &hdr,
                               std::size_t payload_len)
{
    if (state_ != TcpState::Established)
        return false;
    if (hdr.flags & ~(tcpflags::ack | tcpflags::psh))
        return false;
    if (hdr.seq != rcvNxt_)
        return false;
    const std::uint32_t wnd = std::uint32_t(hdr.wnd) << sndScale_;
    if (wnd != sndWnd_)
        return false;
    if (payload_len > 0)
        return seqGe(hdr.ack, sndUna_); // in-order data fast path
    return seqGt(hdr.ack, sndUna_) && seqLe(hdr.ack, sndNxt_);
}

void
TcpConnection::segmentArrived(const TcpHeader &hdr,
                              std::span<const std::uint8_t> payload)
{
    stats_.segsIn.inc();
    stats_.bytesIn.inc(payload.size());

    if (state_ == TcpState::Closed)
        return;

    if (hdr.has(tcpflags::rst)) {
        if (state_ == TcpState::SynSent && !hdr.has(tcpflags::ack))
            return;
        toClosed(true);
        return;
    }

    if (state_ == TcpState::SynSent) {
        processSynSent(hdr);
        return;
    }

    if (headerPredicted(hdr, payload.size()))
        stats_.hdrPredicted.inc();

    // SYN retransmission while we sit in SynRcvd: repeat the SYN|ACK,
    // echoing the new SYN's timestamp. Echoing the first SYN's would
    // hand the peer its whole SYN timeout as an RTT sample.
    if (state_ == TcpState::SynRcvd && hdr.has(tcpflags::syn) &&
        !hdr.has(tcpflags::ack)) {
        if (tsEnabled_ && hdr.timestamps)
            tsRecent_ = hdr.timestamps->value;
        OutSpec synack;
        synack.seq = iss_;
        synack.flags = tcpflags::syn | tcpflags::ack;
        synack.withOptionsForSyn = true;
        synack.retransmit = true;
        emitSegment(synack);
        return;
    }

    if (!hdr.has(tcpflags::ack)) {
        stats_.badSegments.inc();
        return;
    }

    // RFC 1323: remember the timestamp of the segment occupying the
    // left window edge.
    if (tsEnabled_ && hdr.timestamps && seqLe(hdr.seq, rcvNxt_))
        tsRecent_ = hdr.timestamps->value;

    if (state_ == TcpState::SynRcvd) {
        if (seqLe(hdr.ack, iss_) || seqGt(hdr.ack, sndNxt_)) {
            sendRst(hdr.ack, 0, false);
            return;
        }
        transition(TcpState::Established);
        const std::uint32_t mss = effMss();
        cwnd_ = cfg_.initialCwndSegs * mss;
        ssthresh_ = cfg_.maxCwndSegs * mss;
        cwndSegs_ = cfg_.initialCwndSegs;
        ssthreshSegs_ = cfg_.maxCwndSegs;
        rtxRetries_ = 0;
        cancelRtxTimer();
        observer_.onConnected(*this);
        // Fall through: this ACK may carry data and window info.
    }

    // Trim payload against what we've already received.
    std::span<const std::uint8_t> usable = payload;
    std::uint32_t seg_seq = hdr.seq;
    const std::size_t orig_len = payload.size();
    if (seqLt(seg_seq, rcvNxt_)) {
        const std::uint32_t old = rcvNxt_ - seg_seq;
        if (old >= usable.size()) {
            usable = {};
            // Wholly duplicate data (includes persist probes) or a
            // repeated SYN|ACK (our handshake ACK was lost, and the
            // peer waits in SynRcvd for another): force an immediate
            // ACK so the sender makes progress.
            if (orig_len > 0 || hdr.has(tcpflags::syn))
                sendAck();
        } else {
            usable = usable.subspan(old);
        }
        seg_seq = rcvNxt_;
    }

    processAck(hdr, orig_len);
    if (state_ == TcpState::Closed)
        return; // ACK processing may have finished LastAck

    if (!usable.empty()) {
        TcpHeader trimmed = hdr;
        trimmed.seq = seg_seq;
        processData(trimmed, usable);
    }

    if (hdr.has(tcpflags::fin))
        processFin(hdr, orig_len);
}

void
TcpConnection::processSynSent(const TcpHeader &hdr)
{
    if (!hdr.has(tcpflags::syn) || !hdr.has(tcpflags::ack)) {
        stats_.badSegments.inc();
        return;
    }
    if (hdr.ack != iss_ + 1) {
        sendRst(hdr.ack, 0, false);
        return;
    }
    irs_ = hdr.seq;
    rcvNxt_ = irs_ + 1;
    sndUna_ = hdr.ack;

    tsEnabled_ = cfg_.useTimestamps && hdr.timestamps.has_value();
    if (tsEnabled_) {
        tsRecent_ = hdr.timestamps->value;
        // RFC 7323: the SYN|ACK echoes our SYN's timestamp — the
        // handshake itself yields the first RTT sample.
        const std::uint32_t elapsed = tsNow() - hdr.timestamps->echo;
        rtt_.sample(static_cast<Tick>(elapsed) * cfg_.tsGranularity);
    }
    wsEnabled_ = cfg_.useWindowScale && hdr.wscale.has_value();
    if (wsEnabled_) {
        sndScale_ = *hdr.wscale;
        rcvScale_ = cfg_.windowScale;
    }
    peerMss_ = hdr.mss.value_or(536);
    sndWnd_ = hdr.wnd; // unscaled in SYN
    sndWl1_ = hdr.seq;
    sndWl2_ = hdr.ack;

    const std::uint32_t mss = effMss();
    cwnd_ = cfg_.initialCwndSegs * mss;
    ssthresh_ = cfg_.maxCwndSegs * mss;
    cwndSegs_ = cfg_.initialCwndSegs;
    ssthreshSegs_ = cfg_.maxCwndSegs;

    transition(TcpState::Established);
    rtxRetries_ = 0;
    cancelRtxTimer();
    sendAck();
    observer_.onConnected(*this);
    trySend();
}

void
TcpConnection::updateSendWindow(const TcpHeader &hdr)
{
    const std::uint32_t wnd = std::uint32_t(hdr.wnd) << sndScale_;
    if (seqLt(sndWl1_, hdr.seq) ||
        (sndWl1_ == hdr.seq && seqLe(sndWl2_, hdr.ack))) {
        sndWnd_ = wnd;
        sndWl1_ = hdr.seq;
        sndWl2_ = hdr.ack;
        if (sndWnd_ > 0 && persistTimer_.pending()) {
            persistTimer_.cancel();
            trySend();
        }
    }
}

void
TcpConnection::openCongestionWindow(std::uint32_t acked_bytes)
{
    const std::uint32_t mss = effMss();
    if (cfg_.messageMode) {
        if (cwndSegs_ < ssthreshSegs_) {
            ++cwndSegs_;
        } else {
            caAccum_ += 1;
            if (caAccum_ >= cwndSegs_) {
                caAccum_ = 0;
                ++cwndSegs_;
            }
        }
        cwndSegs_ = std::min(cwndSegs_, cfg_.maxCwndSegs);
        return;
    }
    const std::uint32_t cap = cfg_.maxCwndSegs * mss;
    if (cwnd_ < ssthresh_)
        cwnd_ += std::min(acked_bytes, mss);
    else
        cwnd_ += std::max<std::uint32_t>(1, mss * mss / cwnd_);
    cwnd_ = std::min(cwnd_, cap);
}

void
TcpConnection::onLossDetected(bool timeout)
{
    const std::uint32_t mss = effMss();
    if (cfg_.messageMode) {
        const std::uint32_t inflight_segs =
            static_cast<std::uint32_t>(msgs().firstUnsent);
        ssthreshSegs_ = std::max<std::uint32_t>(inflight_segs / 2, 1);
        cwndSegs_ = timeout ? 1 : ssthreshSegs_;
        caAccum_ = 0;
        return;
    }
    const std::uint32_t flight = sndNxt_ - sndUna_;
    ssthresh_ = std::max<std::uint32_t>(flight / 2, 2 * mss);
    cwnd_ = timeout ? mss : ssthresh_ + 3 * mss;
}

void
TcpConnection::retransmitOldest()
{
    if (cfg_.messageMode) {
        MessageState &ms = msgs();
        if (!ms.sendQueue.empty() && ms.sendQueue.front().sent) {
            PendingMsg &msg = ms.sendQueue.front();
            OutSpec spec;
            spec.seq = msg.seqStart;
            spec.flags = tcpflags::ack | tcpflags::psh;
            spec.payload = msg.data;
            spec.retransmit = true;
            emitSegment(spec);
            return;
        }
    } else {
        StreamState &st = stream();
        const std::uint32_t inflight = sndNxt_ - sndUna_;
        if (inflight > 0 && !st.sndBuf.empty()) {
            const std::size_t len = std::min<std::size_t>(
                {effMss(), st.sndBuf.size(), inflight});
            st.segScratch.resize(len);
            st.sndBuf.copyOut(0, len, st.segScratch.data());
            OutSpec spec;
            spec.seq = sndUna_;
            spec.flags = tcpflags::ack;
            spec.payload = st.segScratch;
            spec.retransmit = true;
            emitSegment(spec);
            return;
        }
    }
    // Only the FIN (or a SYN phase handled elsewhere) is outstanding.
    if (finSent_ && seqLt(sndUna_, finSeq_ + 1)) {
        OutSpec fin;
        fin.seq = finSeq_;
        fin.flags = tcpflags::fin | tcpflags::ack;
        fin.retransmit = true;
        emitSegment(fin);
    }
}

void
TcpConnection::completeAckedMessages()
{
    MessageState &ms = msgs();
    while (!ms.sendQueue.empty()) {
        PendingMsg &front = ms.sendQueue.front();
        if (!front.sent)
            break;
        const std::uint32_t end =
            front.seqStart + static_cast<std::uint32_t>(front.data.size());
        if (!seqGe(sndUna_, end))
            break;
        const std::uint64_t tag = front.tag;
        ms.sendQueue.pop_front();
        --ms.firstUnsent;
        observer_.onMessageAcked(*this, tag);
    }
}

void
TcpConnection::processAck(const TcpHeader &hdr, std::size_t payload_len)
{
    if (seqGt(hdr.ack, sndNxt_)) {
        // Acks data we never sent.
        stats_.badSegments.inc();
        sendAck();
        return;
    }

    if (seqLe(hdr.ack, sndUna_)) {
        // Not a new ACK. Count pure duplicates toward fast retransmit.
        const std::uint32_t wnd = std::uint32_t(hdr.wnd) << sndScale_;
        const bool pure_dup = payload_len == 0 && hdr.ack == sndUna_ &&
                              wnd == sndWnd_ && sndNxt_ != sndUna_ &&
                              !hdr.has(tcpflags::syn) &&
                              !hdr.has(tcpflags::fin);
        if (pure_dup) {
            stats_.dupAcksIn.inc();
            ++dupAcks_;
            if (dupAcks_ == 3) {
                stats_.fastRetransmits.inc();
                recover_ = sndNxt_;
                inRecovery_ = true;
                onLossDetected(false);
                retransmitOldest();
            } else if (dupAcks_ > 3 && !cfg_.messageMode) {
                cwnd_ += effMss(); // inflate during recovery
                trySend();
            }
        }
        updateSendWindow(hdr);
        return;
    }

    // New data acknowledged.
    const std::uint32_t acked = hdr.ack - sndUna_;
    const bool was_recovering = inRecovery_;

    // RTT sampling: timestamps give a sample per ACK; otherwise use
    // the one timed segment (Karn's rule).
    if (tsEnabled_ && hdr.timestamps) {
        const std::uint32_t elapsed = tsNow() - hdr.timestamps->echo;
        rtt_.sample(static_cast<Tick>(elapsed) * cfg_.tsGranularity);
    } else if (rttTiming_ && seqGt(hdr.ack, rttSeq_)) {
        if (!retransmittedSinceTiming_)
            rtt_.sample(env_.now() - rttStamp_);
        rttTiming_ = false;
    }
    rtt_.resetBackoff();
    rtxRetries_ = 0;
    dupAcks_ = 0;

    // Consume the send buffer / message queue. The FIN, if ACKed,
    // occupies one sequence number not present in the buffers.
    std::uint32_t data_acked = acked;
    if (finSent_ && seqGe(hdr.ack, finSeq_ + 1))
        --data_acked;
    if (!cfg_.messageMode) {
        ByteFifo &buf = stream().sndBuf;
        buf.drop(std::min<std::size_t>(data_acked, buf.size()));
    }
    sndUna_ = hdr.ack;
    if (cfg_.messageMode)
        completeAckedMessages();

    // NewReno: a partial ACK during recovery means the next segment
    // in the old window was also lost — retransmit it immediately
    // instead of waiting out an RTO per segment. Essential here:
    // without receiver-side reassembly (the firmware subset), a
    // single lost packet discards the whole out-of-order tail.
    if (was_recovering && seqLt(hdr.ack, recover_)) {
        retransmitOldest();
    } else {
        if (was_recovering)
            inRecovery_ = false;
        if (was_recovering && !cfg_.messageMode)
            cwnd_ = ssthresh_; // deflate after recovery
        else
            openCongestionWindow(acked);
    }

    updateSendWindow(hdr);

    // FIN acknowledged?
    if (finSent_ && seqGe(hdr.ack, finSeq_ + 1)) {
        switch (state_) {
          case TcpState::FinWait1:
            transition(TcpState::FinWait2);
            break;
          case TcpState::Closing:
            enterTimeWait();
            break;
          case TcpState::LastAck:
            toClosed(false);
            return;
          default:
            break;
        }
    }

    cancelRtxTimer();
    armRtxTimer();

    if (!cfg_.messageMode)
        observer_.onSendSpace(*this);
    trySend();
}

void
TcpConnection::deliverInOrder(std::span<const std::uint8_t> payload)
{
    rcvNxt_ += static_cast<std::uint32_t>(payload.size());
    stream().rcvOffset += payload.size();
    receiveStateChanged();
    observer_.onDataDelivered(*this, payload);
}

void
TcpConnection::processData(const TcpHeader &hdr,
                           std::span<const std::uint8_t> payload)
{
    if (state_ != TcpState::Established &&
        state_ != TcpState::FinWait1 && state_ != TcpState::FinWait2) {
        return;
    }

    if (hdr.seq == rcvNxt_) {
        if (cfg_.messageMode) {
            MessageState &ms = msgs();
            if (ms.holding) {
                // Retransmission of the segment we already hold.
                return;
            }
            if (!observer_.canAcceptMessage(*this, payload)) {
                // No receive WR posted: retain the message un-ACKed
                // until the application posts one.
                stats_.msgRefused.inc();
                ms.held.assign(payload.begin(), payload.end());
                ms.holding = true;
                receiveStateChanged();
                return;
            }
            rcvNxt_ += static_cast<std::uint32_t>(payload.size());
            receiveStateChanged();
            observer_.onMessage(
                *this,
                std::vector<std::uint8_t>(payload.begin(), payload.end()));
            scheduleAckAfterData(payload.size());
            return;
        }

        deliverInOrder(payload);
        // Pull anything now contiguous out of the reassembly queue.
        StreamState &st = stream();
        if (!st.reass.empty()) {
            std::vector<std::uint8_t> more;
            st.reass.extract(st.rcvOffset, more);
            if (!more.empty())
                deliverInOrder(more);
        }
        scheduleAckAfterData(payload.size());
        return;
    }

    // Out of order (hdr.seq > rcvNxt_).
    stats_.oooSegments.inc();
    if (!cfg_.messageMode) {
        StreamState &st = stream();
        const std::uint64_t off = st.rcvOffset + (hdr.seq - rcvNxt_);
        st.reass.insert(off, payload, st.rcvOffset);
    } else {
        stats_.oooDropped.inc();
    }
    // Duplicate ACK right away so the sender can fast-retransmit.
    sendAck();
}

void
TcpConnection::scheduleAckAfterData(std::size_t payload_len)
{
    (void)payload_len;
    ++unackedSegsSinceAck_;
    if (!cfg_.delayedAck || unackedSegsSinceAck_ >= 2 ||
        holdingMessage()) {
        sendAck();
        return;
    }
    armDelAck();
}

void
TcpConnection::processFin(const TcpHeader &hdr, std::size_t payload_len)
{
    // Accept the FIN only once all preceding data has been consumed.
    const std::uint32_t fin_seq =
        hdr.seq + static_cast<std::uint32_t>(payload_len);
    if (fin_seq != rcvNxt_)
        return; // out-of-order FIN; peer will retransmit

    if (state_ == TcpState::CloseWait || state_ == TcpState::LastAck ||
        state_ == TcpState::Closing || state_ == TcpState::TimeWait) {
        // Duplicate FIN: re-ACK (and refresh TIME_WAIT).
        sendAck();
        if (state_ == TcpState::TimeWait)
            enterTimeWait();
        return;
    }

    rcvNxt_ += 1;
    receiveStateChanged();
    sendAck();
    observer_.onPeerClosed(*this);

    switch (state_) {
      case TcpState::Established:
        transition(TcpState::CloseWait);
        break;
      case TcpState::FinWait1:
        // Our FIN not yet ACKed (otherwise we'd be in FinWait2).
        transition(TcpState::Closing);
        break;
      case TcpState::FinWait2:
        enterTimeWait();
        break;
      default:
        break;
    }
}

void
TcpConnection::onReceiveWindowGrew()
{
    if (state_ == TcpState::Closed)
        return;

    if (holdingMessage() &&
        observer_.canAcceptMessage(*this, msgs().held)) {
        MessageState &ms = msgs();
        std::vector<std::uint8_t> msg = std::move(ms.held);
        ms.held.clear();
        ms.holding = false;
        rcvNxt_ += static_cast<std::uint32_t>(msg.size());
        receiveStateChanged();
        observer_.onMessage(*this, std::move(msg));
        sendAck();
        return;
    }

    if (!established() && state_ != TcpState::CloseWait)
        return;
    // Send a window update if the edge moved meaningfully (BSD: by
    // two segments or half the buffer).
    const std::uint32_t w = observer_.receiveWindow(*this);
    const std::uint32_t new_edge = rcvNxt_ + w;
    // Update when the window opened by two segments, or when it was
    // effectively closed (the remaining edge could not carry a full
    // segment/message).
    if (seqGt(new_edge, rcvAdvertised_) &&
        (new_edge - rcvAdvertised_ >= 2 * effMss() ||
         rcvAdvertised_ - rcvNxt_ < effMss())) {
        sendAck();
    }
}

std::optional<std::uint32_t>
TcpConnection::windowGrewThreshold() const
{
    // Mirrors onReceiveWindowGrew() branch by branch.
    if (state_ == TcpState::Closed)
        return std::nullopt;
    if (holdingMessage())
        return 0; // the held message is retried at any window
    if (!established() && state_ != TcpState::CloseWait)
        return std::nullopt;
    // With A = rcvAdvertised_ - rcvNxt_ and d = w - A (both mod 2^32),
    // an update goes out iff seqGt(rcvNxt_ + w, rcvAdvertised_), i.e.
    // d in [1, 2^31), and either A < MSS or d >= 2 * MSS: together,
    // d in [lo, 2^31). Find the least w in [0, 2^32) that lands there.
    const std::uint32_t mss = effMss();
    const std::uint32_t adv = rcvAdvertised_ - rcvNxt_;
    const std::uint32_t lo = adv < mss ? 1 : 2 * mss;
    // w = 0 already qualifies when the advertised edge lags rcvNxt_
    // by at least lo; otherwise d first reaches lo at w = A + lo.
    if (seqGt(rcvNxt_, rcvAdvertised_) && rcvNxt_ - rcvAdvertised_ >= lo)
        return 0;
    return adv + lo;
}

// --------------------------------------------------------------------
// Teardown
// --------------------------------------------------------------------

void
TcpConnection::toClosed(bool notify_reset)
{
    if (state_ == TcpState::Closed)
        return;
    transition(TcpState::Closed);
    rtxTimer_.cancel();
    delAckTimer_.cancel();
    persistTimer_.cancel();
    timeWaitTimer_.cancel();
    if (notify_reset)
        observer_.onReset(*this);
    else
        observer_.onClosed(*this);
    env_.connectionClosed(*this);
}

} // namespace qpip::inet
