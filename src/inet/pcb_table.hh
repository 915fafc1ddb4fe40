/**
 * @file
 * Protocol control block demultiplexing: maps a connection four-tuple
 * to its endpoint object. Both the host stack and the QPIP NIC
 * firmware use one of these; the paper calls out "UDP/TCP connection
 * de-multiplexing" as one of the key places where hardware support
 * pays off. Listening ports are demultiplexed by the owning context
 * (HostStack, QpipNic), which sees only SYNs.
 */

#pragma once

#include <cstddef>
#include <unordered_map>

#include "inet/inet_addr.hh"

namespace qpip::inet {

/** Connection identity: local and remote endpoints. */
struct FourTuple
{
    SockAddr local;
    SockAddr remote;

    auto operator<=>(const FourTuple &) const = default;
};

struct FourTupleHash
{
    std::size_t
    operator()(const FourTuple &t) const
    {
        const SockAddrHash h;
        return h(t.local) * 0x9e3779b97f4a7c15ull ^ h(t.remote);
    }
};

/**
 * Exact four-tuple demux table. Hashed, and it offers no walk: every
 * inbound segment looks its connection up, and the table's order
 * never reaches the simulation.
 */
template <typename Conn>
class PcbTable
{
  public:
    void
    insertConn(const FourTuple &t, Conn *conn)
    {
        conns_[t] = conn;
    }

    void eraseConn(const FourTuple &t) { conns_.erase(t); }

    Conn *
    lookupConn(const FourTuple &t) const
    {
        auto it = conns_.find(t);
        return it == conns_.end() ? nullptr : it->second;
    }

  private:
    std::unordered_map<FourTuple, Conn *, FourTupleHash> conns_;
};

} // namespace qpip::inet
