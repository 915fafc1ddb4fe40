#include "inet/ip_frag.hh"

#include <algorithm>
#include <utility>

#include "inet/ipv4.hh"
#include "net/packet.hh"
#include "sim/logging.hh"

namespace qpip::inet {

void
fragmentIpv6(const IpDatagram &dgram, std::uint32_t link_mtu,
             std::uint32_t ident, FrameList &out)
{
    out.clear();
    if (ipv6HeaderBytes + dgram.payload.size() <= link_mtu) {
        out.push_back(serializeIpv6(dgram));
        return;
    }

    if (link_mtu < ipv6HeaderBytes + ipv6FragHeaderBytes + 8)
        sim::fatal("link MTU %u too small to fragment", link_mtu);

    // Per-fragment payload capacity, rounded down to 8 bytes as the
    // offset field requires.
    const std::size_t cap =
        (link_mtu - ipv6HeaderBytes - ipv6FragHeaderBytes) & ~std::size_t(7);

    std::span<const std::uint8_t> payload(dgram.payload);
    std::size_t offset = 0;
    while (offset < payload.size()) {
        const std::size_t n = std::min(cap, payload.size() - offset);
        const bool more = offset + n < payload.size();
        out.push_back(serializeIpv6Fragment(
            dgram, ident, static_cast<std::uint16_t>(offset), more,
            payload.subspan(offset, n)));
        offset += n;
    }
}

void
fragmentIpv4(const IpDatagram &dgram, std::uint32_t link_mtu,
             std::uint16_t ident, FrameList &out)
{
    out.clear();
    if (ipv4HeaderBytes + dgram.payload.size() <= link_mtu) {
        out.push_back(serializeIpv4(dgram, ident));
        return;
    }

    if (link_mtu < ipv4HeaderBytes + 8)
        sim::fatal("link MTU %u too small to fragment", link_mtu);

    const std::size_t cap =
        (link_mtu - ipv4HeaderBytes) & ~std::size_t(7);

    std::span<const std::uint8_t> payload(dgram.payload);
    std::size_t offset = 0;
    while (offset < payload.size()) {
        const std::size_t n = std::min(cap, payload.size() - offset);
        const bool more = offset + n < payload.size();
        out.push_back(serializeIpv4Fragment(
            dgram, ident, static_cast<std::uint16_t>(offset), more,
            payload.subspan(offset, n)));
        offset += n;
    }
}

std::optional<IpDatagram>
IpReassembler::offer(IpFrame pkt, sim::Tick now)
{
    if (!pkt.frag) {
        IpDatagram d;
        d.src = pkt.src;
        d.dst = pkt.dst;
        d.proto = pkt.proto;
        d.hopLimit = pkt.hopLimit;
        d.payload = std::move(pkt.payload);
        return d;
    }

    fragmentsIn.inc();
    const Key key{pkt.src, pkt.dst, pkt.frag->ident};
    Partial &p = pending_[key];
    if (p.slices.empty()) {
        p.firstAt = now;
        p.proto = pkt.proto;
        p.hopLimit = pkt.hopLimit;
    }
    const auto sliceLen = static_cast<std::uint32_t>(pkt.payload.size());
    // Duplicate fragments simply overwrite.
    p.slices[pkt.frag->offsetBytes] = std::move(pkt.payload);
    if (!pkt.frag->moreFragments) {
        p.sawLast = true;
        p.totalLen = pkt.frag->offsetBytes + sliceLen;
    }
    return tryComplete(key, p);
}

std::optional<IpDatagram>
IpReassembler::tryComplete(const Key &key, Partial &p)
{
    if (!p.sawLast)
        return std::nullopt;
    // Check contiguity from offset 0.
    std::uint32_t next = 0;
    for (const auto &[off, bytes] : p.slices) {
        if (off != next)
            return std::nullopt;
        next += static_cast<std::uint32_t>(bytes.size());
    }
    if (next != p.totalLen)
        return std::nullopt;

    IpDatagram d;
    d.src = key.src;
    d.dst = key.dst;
    d.proto = p.proto;
    d.hopLimit = p.hopLimit;
    d.payload = net::acquireBuffer();
    d.payload.reserve(p.totalLen);
    for (auto &[off, bytes] : p.slices) {
        d.payload.insert(d.payload.end(), bytes.begin(), bytes.end());
        net::recycleBuffer(std::move(bytes));
    }
    pending_.erase(key);
    reassembled.inc();
    return d;
}

void
IpReassembler::expire(sim::Tick now)
{
    for (auto it = pending_.begin(); it != pending_.end();) {
        if (now - it->second.firstAt > timeout_) {
            it = pending_.erase(it);
            expired.inc();
        } else {
            ++it;
        }
    }
}

} // namespace qpip::inet
