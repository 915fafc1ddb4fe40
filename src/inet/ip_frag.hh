/**
 * @file
 * IP fragmentation and reassembly for both families. IPv6 has no
 * in-network fragmentation: only the source fragments and only the
 * destination reassembles — the property the paper calls "better
 * suited to hardware based protocol implementations". The QPIP NIC
 * uses this to push one arbitrarily-sized TCP message-segment through
 * a smaller link MTU (Figure 4's 1500/9000 byte points). The IPv4
 * source-side fragmenter follows the same end-to-end discipline so
 * the shared InetStack can carry either family.
 */

#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "inet/ipv6.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace qpip::inet {

/**
 * Serialized wire frames of one datagram. The fragmenters fill a list
 * their caller keeps, so a stack reuses one list's storage for every
 * datagram instead of allocating one per datagram.
 */
using FrameList = std::vector<std::vector<std::uint8_t>>;

/**
 * Fragment @p dgram into IPv6 wire packets that fit @p link_mtu,
 * replacing the contents of @p out. Emits a single unfragmented
 * packet when it fits. @p ident must be unique per (src,dst) for the
 * reassembly window.
 */
void fragmentIpv6(const IpDatagram &dgram, std::uint32_t link_mtu,
                  std::uint32_t ident, FrameList &out);

/**
 * Fragment @p dgram into IPv4 wire packets that fit @p link_mtu,
 * replacing the contents of @p out. A datagram that fits emits the
 * unfragmented (DF) form; larger ones carry MF/offset in the fixed
 * header (RFC 791).
 */
void fragmentIpv4(const IpDatagram &dgram, std::uint32_t link_mtu,
                  std::uint16_t ident, FrameList &out);

/**
 * Destination-side reassembly for either family. Keyed by
 * (src, dst, ident) — the addresses keep the two families' ident
 * spaces apart; partial datagrams expire after a timeout (RFC 2460
 * says 60 s; the SAN configs use far less so a lost fragment doesn't
 * pin NIC SRAM).
 */
class IpReassembler
{
  public:
    explicit IpReassembler(sim::Tick timeout = 60 * sim::oneSec)
        : timeout_(timeout)
    {}

    /**
     * Offer one parsed frame. Taken by value so the hot unfragmented
     * path can move the payload through instead of copying it.
     * @return a complete datagram if @p pkt finished one, else
     *         std::nullopt. Unfragmented packets complete immediately.
     */
    std::optional<IpDatagram> offer(IpFrame pkt, sim::Tick now);

    /** Drop partial datagrams older than the timeout. */
    void expire(sim::Tick now);

    /** Number of partially reassembled datagrams held. */
    std::size_t pending() const { return pending_.size(); }

    sim::Counter fragmentsIn;
    sim::Counter reassembled;
    sim::Counter expired;

  private:
    struct Key
    {
        InetAddr src, dst;
        std::uint32_t ident;
        auto operator<=>(const Key &) const = default;
    };

    struct Partial
    {
        /** offset -> slice bytes. */
        std::map<std::uint16_t, std::vector<std::uint8_t>> slices;
        /** Total length, known once the last fragment arrives. */
        std::uint32_t totalLen = 0;
        bool sawLast = false;
        IpProto proto = IpProto::Udp;
        std::uint8_t hopLimit = defaultHopLimit;
        sim::Tick firstAt = 0;
    };

    std::optional<IpDatagram> tryComplete(const Key &key, Partial &p);

    sim::Tick timeout_;
    /** Ordered so the expiry sweep walks partials deterministically. */
    std::map<Key, Partial> pending_;
};

/** Historical name from when only the IPv6 path could fragment. */
using Ipv6Reassembler = IpReassembler;

} // namespace qpip::inet
