/**
 * @file
 * Clock domains: convert between cycle counts of a component running
 * at some frequency (host CPU at 550 MHz, LANai at 133 MHz, PCI at
 * 33 MHz) and global picosecond ticks.
 */

#pragma once

#include <cstdint>

#include "sim/types.hh"

namespace qpip::sim {

/**
 * A fixed-frequency clock domain.
 */
class ClockDomain
{
  public:
    /** @param freq_hz domain frequency in Hz; must be > 0. */
    explicit ClockDomain(std::uint64_t freq_hz);

    /** Domain frequency in Hz. */
    std::uint64_t frequency() const { return freqHz_; }

    /** Convert a cycle count to ticks (rounded to nearest tick). */
    Tick cyclesToTicks(Cycles c) const;

    /** Convert (fractional) microseconds to whole cycles (rounded). */
    Cycles usToCycles(double us) const;

  private:
    std::uint64_t freqHz_;
    double periodPs_;
};

} // namespace qpip::sim
