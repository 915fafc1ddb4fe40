/**
 * @file
 * Out-of-order TCP segment reassembly queue. The host-based stacks use
 * it; the QPIP prototype firmware deliberately does not ("support for
 * out-of-order reassembly or urgent data was not included") — the
 * firmware drops out-of-order segments and lets the sender retransmit,
 * which is cheap in a SAN where loss and reordering seldom occur.
 *
 * Keys are 64-bit logical stream offsets, not raw 32-bit sequence
 * numbers: the owning connection converts in-window sequence numbers
 * to offsets, which makes wraparound a non-issue here.
 */

#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

namespace qpip::inet {

/**
 * Buffers segments beyond the next expected stream offset and
 * surrenders bytes once they become contiguous.
 */
class TcpReassembly
{
  public:
    /**
     * Insert a segment at logical stream offset @p offset. Overlaps
     * with already-buffered data keep the first copy (as in BSD).
     * Bytes at or below @p next_expected are trimmed.
     */
    void insert(std::uint64_t offset,
                std::span<const std::uint8_t> data,
                std::uint64_t next_expected);

    /**
     * Extract bytes now contiguous from @p next_expected, appending
     * to @p out.
     * @return bytes extracted.
     */
    std::size_t extract(std::uint64_t next_expected,
                        std::vector<std::uint8_t> &out);

    bool empty() const { return segments_.empty(); }
    void clear();

  private:
    /** offset -> bytes, non-overlapping. */
    std::map<std::uint64_t, std::vector<std::uint8_t>> segments_;
};

} // namespace qpip::inet
