/**
 * @file
 * The traditional sockets interface over the host-resident stack —
 * the baseline abstraction QPIP replaces. Calls are asynchronous
 * (callback-based) because hosts are event-driven simulation objects,
 * but each call charges the CPU exactly like its blocking counterpart:
 * syscall crossing, socket-layer work, and the user/kernel copy (with
 * the checksum folded in on non-offloading NICs, as Linux 2.4 did).
 */

#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "host/sockbuf.hh"
#include "inet/inet_stack.hh"
#include "inet/tcp_conn.hh"
#include "sim/ring_fifo.hh"

namespace qpip::host {

class HostStack;

/**
 * A connected (or connecting) TCP socket.
 */
class TcpSocket : public inet::TcpObserver,
                  public std::enable_shared_from_this<TcpSocket>
{
  public:
    using ConnectCb = std::function<void(bool ok)>;
    using RecvCb = std::function<void(std::vector<std::uint8_t> data)>;
    using DoneCb = std::function<void()>;

    TcpSocket(HostStack &stack, inet::TcpConfig cfg,
              std::size_t rcv_buf_bytes);
    ~TcpSocket() override;

    /**
     * Send as much of @p data as fits, then wait for space and
     * continue, invoking @p done when everything is queued to TCP.
     * This is write() in a loop — the ttcp/NBD workhorse.
     */
    void sendAll(std::vector<std::uint8_t> data, DoneCb done);

    /**
     * Read up to @p max_bytes; blocks (asynchronously) until at least
     * one byte or EOF. EOF and errors deliver an empty vector.
     */
    void recv(std::size_t max_bytes, RecvCb cb);

    /**
     * Read exactly @p n bytes (looping recv), EOF/error short-reads
     * deliver what arrived.
     */
    void recvExact(std::size_t n, RecvCb cb);

    /** Graceful close. */
    void close();

    bool connected() const { return connected_; }
    bool eof() const { return eofReceived_ && rxBuf_.empty(); }
    bool error() const { return error_; }
    inet::TcpConnection &connection() { return *conn_; }

    // --- TcpObserver ------------------------------------------------
    void onConnected(inet::TcpConnection &) override;
    void onDataDelivered(inet::TcpConnection &,
                         std::span<const std::uint8_t>) override;
    void onSendSpace(inet::TcpConnection &) override;
    void onPeerClosed(inet::TcpConnection &) override;
    void onClosed(inet::TcpConnection &) override;
    void onReset(inet::TcpConnection &) override;
    std::uint32_t receiveWindow(inet::TcpConnection &) override;

  private:
    friend class HostStack;

    void continueSend();
    void serveRecvWaiter();

    HostStack &stack_;
    /** The connection's config: it refers to this copy. */
    const inet::TcpConfig cfg_;
    std::unique_ptr<inet::TcpConnection> conn_;
    SockBuf rxBuf_;
    bool connected_ = false;
    bool eofReceived_ = false;
    bool error_ = false;

    ConnectCb connectCb_;

    // Pending sendAll state.
    std::vector<std::uint8_t> pendingSend_;
    std::size_t pendingSendOff_ = 0;
    DoneCb pendingSendDone_;
    bool sendInProgress_ = false;

    // Pending recv state.
    std::size_t recvMax_ = 0;
    RecvCb recvCb_;
    bool recvWaiting_ = false;
    bool recvCopyInFlight_ = false;
    /** Distinguishes recv cycles so stale completions are ignored. */
    std::uint64_t recvGen_ = 0;
};

/**
 * A bound UDP socket.
 */
class UdpSocket : public inet::UdpEndpoint,
                  public std::enable_shared_from_this<UdpSocket>
{
  public:
    struct Datagram
    {
        std::vector<std::uint8_t> data;
        inet::SockAddr from;
    };

    using RecvFromCb = std::function<void(Datagram)>;
    /** Reports the IP-layer outcome of a sendTo (EMSGSIZE etc.). */
    using SendCb = std::function<void(inet::IpSendResult)>;

    UdpSocket(HostStack &stack, inet::SockAddr local);
    ~UdpSocket() override;

    /**
     * Send one datagram (charges the full sendto() path). @p done
     * fires once the IP layer has accepted or refused the datagram;
     * an oversized payload reports IpSendResult::MsgSize, the moral
     * equivalent of sendto() failing with EMSGSIZE.
     */
    void sendTo(std::vector<std::uint8_t> data,
                const inet::SockAddr &dst, SendCb done = nullptr);

    /** Receive one datagram (waits if none queued). */
    void recvFrom(RecvFromCb cb);

    /** Queued datagram count (receive side). */
    std::size_t pendingCount() const { return rxQueue_.size(); }

  private:
    friend class HostStack;

    // --- inet::UdpEndpoint ------------------------------------------
    void udpDeliver(std::vector<std::uint8_t> &&payload,
                    const inet::SockAddr &from) override;

    /** Queue/hand off one arrived datagram. */
    void deliver(Datagram dgram);

    HostStack &stack_;
    inet::SockAddr local_;
    sim::RingFifo<Datagram> rxQueue_;
    std::size_t rxQueueCap_ = 256;
    RecvFromCb waiter_;
};

} // namespace qpip::host
