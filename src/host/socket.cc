#include "host/socket.hh"

#include "host/host_stack.hh"

#include "inet/udp.hh"
#include "sim/logging.hh"

namespace qpip::host {

// ---------------------------------------------------------------------
// TcpSocket
// ---------------------------------------------------------------------

TcpSocket::TcpSocket(HostStack &stack, inet::TcpConfig cfg,
                     std::size_t rcv_buf_bytes)
    : stack_(stack), cfg_(cfg),
      conn_(std::make_unique<inet::TcpConnection>(stack.inet(), *this,
                                                  cfg_)),
      rxBuf_(rcv_buf_bytes)
{}

TcpSocket::~TcpSocket() = default;

void
TcpSocket::sendAll(std::vector<std::uint8_t> data, DoneCb done)
{
    if (pendingSendDone_)
        sim::panic("TcpSocket: overlapping sendAll");
    pendingSend_ = std::move(data);
    pendingSendOff_ = 0;
    pendingSendDone_ = std::move(done);
    continueSend();
}

void
TcpSocket::continueSend()
{
    if (sendInProgress_ || !pendingSendDone_)
        return;
    if (error_) {
        auto done = std::move(pendingSendDone_);
        pendingSend_.clear();
        done();
        return;
    }
    const std::size_t remaining = pendingSend_.size() - pendingSendOff_;
    if (remaining == 0) {
        auto done = std::move(pendingSendDone_);
        pendingSend_.clear();
        pendingSendOff_ = 0;
        done();
        return;
    }
    const std::size_t space = conn_->sendSpace();
    if (space == 0)
        return; // wait for onSendSpace
    const std::size_t n = std::min(remaining, space);

    const auto &costs = stack_.costs();
    const sim::Cycles c = costs.syscallOverhead + costs.sockSendBase +
                          stack_.txCopyCycles(n);
    sendInProgress_ = true;
    stack_.os().defer(c, [self = shared_from_this(), n] {
        self->sendInProgress_ = false;
        const std::size_t accepted = self->conn_->send(
            std::span<const std::uint8_t>(
                self->pendingSend_.data() + self->pendingSendOff_, n));
        self->pendingSendOff_ += accepted;
        self->continueSend();
    });
}

void
TcpSocket::onSendSpace(inet::TcpConnection &)
{
    if (!pendingSendDone_ || sendInProgress_)
        return;
    // Writer was blocked: pay the wakeup, then continue the loop.
    sendInProgress_ = true;
    stack_.os().defer(stack_.costs().processWakeup,
                      [self = shared_from_this()] {
                          self->sendInProgress_ = false;
                          self->continueSend();
                      });
}

void
TcpSocket::recv(std::size_t max_bytes, RecvCb cb)
{
    if (recvWaiting_)
        sim::panic("TcpSocket: overlapping recv");
    recvMax_ = max_bytes;
    recvCb_ = std::move(cb);
    recvWaiting_ = true;
    ++recvGen_;
    const auto &costs = stack_.costs();
    stack_.os().defer(costs.syscallOverhead + costs.sockRecvBase,
                      [self = shared_from_this()] {
                          self->serveRecvWaiter();
                      });
}

void
TcpSocket::serveRecvWaiter()
{
    if (!recvWaiting_ || recvCopyInFlight_)
        return;
    if (rxBuf_.empty()) {
        if (eofReceived_ || error_) {
            recvWaiting_ = false;
            auto cb = std::move(recvCb_);
            cb({});
        }
        return; // stay blocked until data arrives
    }
    const std::size_t n = std::min(recvMax_, rxBuf_.size());
    const sim::Cycles c =
        HostOS::byteCycles(stack_.costs().copyPerByte, n);
    // Claim the cycle: further wakeups must not charge a second copy.
    recvCopyInFlight_ = true;
    const std::uint64_t gen = recvGen_;
    stack_.os().defer(c, [self = shared_from_this(), gen] {
        self->recvCopyInFlight_ = false;
        if (!self->recvWaiting_ || gen != self->recvGen_)
            return;
        const std::size_t take =
            std::min(self->recvMax_, self->rxBuf_.size());
        if (take == 0)
            return; // re-blocked; data will wake us again
        self->recvWaiting_ = false;
        auto cb = std::move(self->recvCb_);
        auto data = self->rxBuf_.read(take);
        // Draining the sockbuf opens the advertised window.
        self->conn_->onReceiveWindowGrew();
        cb(std::move(data));
    });
}

namespace {

/** Cycle-free state machine behind recvExact. */
struct ExactRead : std::enable_shared_from_this<ExactRead>
{
    std::shared_ptr<TcpSocket> sock;
    std::size_t want = 0;
    TcpSocket::RecvCb cb;
    std::vector<std::uint8_t> acc;

    static void
    step(std::shared_ptr<ExactRead> st)
    {
        if (st->acc.size() >= st->want || st->sock->eof() ||
            st->sock->error()) {
            st->cb(std::move(st->acc));
            return;
        }
        auto sock = st->sock;
        sock->recv(st->want - st->acc.size(),
                   [st](std::vector<std::uint8_t> part) {
                       if (part.empty()) {
                           // EOF/error: surface what we have.
                           st->cb(std::move(st->acc));
                           return;
                       }
                       st->acc.insert(st->acc.end(), part.begin(),
                                      part.end());
                       step(st);
                   });
    }
};

} // namespace

void
TcpSocket::recvExact(std::size_t n, RecvCb cb)
{
    auto st = std::make_shared<ExactRead>();
    st->sock = shared_from_this();
    st->want = n;
    st->cb = std::move(cb);
    st->acc.reserve(n);
    ExactRead::step(std::move(st));
}

void
TcpSocket::close()
{
    stack_.os().defer(stack_.costs().syscallOverhead,
                      [self = shared_from_this()] {
                          self->conn_->close();
                      });
}

void
TcpSocket::onConnected(inet::TcpConnection &)
{
    connected_ = true;
    if (connectCb_) {
        auto cb = std::move(connectCb_);
        stack_.os().defer(stack_.costs().processWakeup,
                          [cb = std::move(cb)] { cb(true); });
    }
}

void
TcpSocket::onDataDelivered(inet::TcpConnection &,
                           std::span<const std::uint8_t> data)
{
    rxBuf_.append(data);
    if (recvWaiting_) {
        stack_.os().defer(stack_.costs().processWakeup,
                          [self = shared_from_this()] {
                              self->serveRecvWaiter();
                          });
    }
}

void
TcpSocket::onPeerClosed(inet::TcpConnection &)
{
    eofReceived_ = true;
    if (recvWaiting_) {
        stack_.os().defer(stack_.costs().processWakeup,
                          [self = shared_from_this()] {
                              self->serveRecvWaiter();
                          });
    }
}

void
TcpSocket::onClosed(inet::TcpConnection &)
{
    eofReceived_ = true;
    serveRecvWaiter();
}

void
TcpSocket::onReset(inet::TcpConnection &)
{
    error_ = true;
    eofReceived_ = true;
    if (connectCb_) {
        auto cb = std::move(connectCb_);
        cb(false);
    }
    serveRecvWaiter();
    continueSend();
}

std::uint32_t
TcpSocket::receiveWindow(inet::TcpConnection &)
{
    return static_cast<std::uint32_t>(rxBuf_.freeSpace());
}

// ---------------------------------------------------------------------
// UdpSocket
// ---------------------------------------------------------------------

UdpSocket::UdpSocket(HostStack &stack, inet::SockAddr local)
    : stack_(stack), local_(std::move(local))
{}

UdpSocket::~UdpSocket() = default;

void
UdpSocket::sendTo(std::vector<std::uint8_t> data,
                  const inet::SockAddr &dst, SendCb done)
{
    const auto &costs = stack_.costs();
    const sim::Cycles c = costs.syscallOverhead + costs.sockSendBase +
                          stack_.txCopyCycles(data.size());
    stack_.os().defer(
        c,
        [self = shared_from_this(), data = std::move(data), dst,
         done = std::move(done)]() mutable {
            inet::IpDatagram dgram;
            dgram.src = self->local_.addr;
            dgram.dst = dst.addr;
            dgram.proto = inet::IpProto::Udp;
            dgram.payload =
                inet::serializeUdp(self->local_.addr, dst.addr,
                             self->local_.port, dst.port, data);
            self->stack_.udpOutput(std::move(dgram),
                                   std::move(done));
        });
}

void
UdpSocket::recvFrom(RecvFromCb cb)
{
    if (waiter_)
        sim::panic("UdpSocket: overlapping recvFrom");
    const auto &costs = stack_.costs();
    if (!rxQueue_.empty()) {
        auto dgram = std::move(rxQueue_.front());
        rxQueue_.pop_front();
        const sim::Cycles c =
            costs.syscallOverhead + costs.sockRecvBase +
            HostOS::byteCycles(costs.copyPerByte, dgram.data.size());
        stack_.os().defer(c, [cb = std::move(cb),
                              d = std::move(dgram)]() mutable {
            cb(std::move(d));
        });
        return;
    }
    stack_.os().charge(costs.syscallOverhead + costs.sockRecvBase);
    waiter_ = std::move(cb);
}

void
UdpSocket::udpDeliver(std::vector<std::uint8_t> &&payload,
                      const inet::SockAddr &from)
{
    Datagram d;
    d.data = std::move(payload);
    d.from = from;
    deliver(std::move(d));
}

void
UdpSocket::deliver(Datagram dgram)
{
    if (waiter_) {
        auto cb = std::move(waiter_);
        waiter_ = nullptr;
        const auto &costs = stack_.costs();
        const sim::Cycles c =
            costs.processWakeup +
            HostOS::byteCycles(costs.copyPerByte, dgram.data.size());
        stack_.os().defer(c, [cb = std::move(cb),
                              d = std::move(dgram)]() mutable {
            cb(std::move(d));
        });
        return;
    }
    if (rxQueue_.size() >= rxQueueCap_)
        return; // tail drop, like a full socket buffer
    rxQueue_.push_back(std::move(dgram));
}

} // namespace qpip::host
