/**
 * @file
 * Packet capture to standard pcap files readable by Wireshark and
 * tcpdump. Because packets carry the real serialized bytes of the
 * network layer and above (genuine IPv4/IPv6/TCP/UDP headers and
 * checksums), captures use LINKTYPE_RAW (the frame starts at the IP
 * version nibble) and every captured frame dissects cleanly. A writer
 * taps a Link's transmitters, each of which has one tap slot: frames
 * are recorded at the tick their serialization starts, after fault
 * injection, so the capture shows exactly what occupied the wire —
 * including corrupted frames and frames subsequently dropped by the
 * fault injector.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/packet.hh"
#include "sim/types.hh"

namespace qpip::net {

class Link;

/** pcap linktype for frames beginning with a raw IP header. */
constexpr std::uint32_t pcapLinktypeRaw = 101;

constexpr std::size_t pcapFileHeaderBytes = 24;
constexpr std::size_t pcapRecordHeaderBytes = 16;

/**
 * An in-memory pcap capture: record frames, then write the file.
 */
class PcapWriter
{
  public:
    explicit PcapWriter(std::uint32_t snaplen = 65535);

    /** Append one frame timestamped @p when (simulated ticks). */
    void record(const Packet &pkt, sim::Tick when);

    std::size_t frames() const { return frames_; }

    /** The complete pcap file image (header + records). */
    const std::vector<std::uint8_t> &bytes() const { return buf_; }

    /** Write bytes() to @p path. @return false on I/O failure. */
    bool writeFile(const std::string &path) const;

  private:
    std::uint32_t snaplen_;
    std::size_t frames_ = 0;
    std::vector<std::uint8_t> buf_;
};

/**
 * Tap both transmitters of @p link into @p writer, which must outlive
 * the link's traffic: tapLinkSide() on each side with one writer.
 * Replaces any previous tap on the link. Works wherever the link's two
 * directions run on one queue: unpartitioned, on a one-partition
 * star, and on a spoke net::partitionFabric binds, which shares its
 * switch's partition. On a trunk between two partitions this panics
 * (here if the link is already bound, at the binding otherwise); use
 * tapLinkSide() with one writer per side.
 */
void tapLink(Link &link, PcapWriter &writer);

/**
 * Tap only the transmitter of @p side into @p writer, replacing that
 * side's previous tap. Each side's tap fires in that side's sending
 * partition, so a link whose directions run in two partitions needs
 * one writer per direction: a shared one would interleave
 * nondeterministically. Compare captures per side (or concatenate in
 * a fixed order) instead.
 */
void tapLinkSide(Link &link, int side, PcapWriter &writer);

} // namespace qpip::net
