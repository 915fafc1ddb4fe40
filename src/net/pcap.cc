#include "net/pcap.hh"

#include <cstdio>

#include "net/link.hh"
#include "sim/logging.hh"

namespace qpip::net {

namespace {

// pcap is host-endian with endianness signalled by the magic; we
// always write little-endian (the conventional on-disk form).
void
putLe16(std::vector<std::uint8_t> &out, std::uint16_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void
putLe32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v >> 16));
    out.push_back(static_cast<std::uint8_t>(v >> 24));
}

} // namespace

PcapWriter::PcapWriter(std::uint32_t snaplen) : snaplen_(snaplen)
{
    putLe32(buf_, 0xa1b2c3d4); // magic: microsecond timestamps
    putLe16(buf_, 2);          // version major
    putLe16(buf_, 4);          // version minor
    putLe32(buf_, 0);          // thiszone
    putLe32(buf_, 0);          // sigfigs
    putLe32(buf_, snaplen_);
    putLe32(buf_, pcapLinktypeRaw);
}

void
PcapWriter::record(const Packet &pkt, sim::Tick when)
{
    const auto incl = static_cast<std::uint32_t>(
        std::min<std::size_t>(pkt.data.size(), snaplen_));
    putLe32(buf_, static_cast<std::uint32_t>(when / sim::oneSec));
    putLe32(buf_, static_cast<std::uint32_t>((when % sim::oneSec) /
                                             sim::oneUs));
    putLe32(buf_, incl);
    putLe32(buf_, static_cast<std::uint32_t>(pkt.data.size()));
    buf_.insert(buf_.end(), pkt.data.begin(), pkt.data.begin() + incl);
    ++frames_;
}

bool
PcapWriter::writeFile(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
        sim::warn("PcapWriter: cannot open '%s'", path.c_str());
        return false;
    }
    const bool ok =
        std::fwrite(buf_.data(), 1, buf_.size(), f) == buf_.size();
    std::fclose(f);
    return ok;
}

void
tapLink(Link &link, PcapWriter &writer)
{
    tapLinkSide(link, 0, writer);
    tapLinkSide(link, 1, writer);
}

void
tapLinkSide(Link &link, int side, PcapWriter &writer)
{
    link.setSideTap(side, writer);
}

} // namespace qpip::net
