#include "sim/clock.hh"

#include <cmath>

#include "sim/logging.hh"

namespace qpip::sim {

ClockDomain::ClockDomain(std::uint64_t freq_hz)
    : freqHz_(freq_hz), periodPs_(1e12 / static_cast<double>(freq_hz))
{
    if (freq_hz == 0)
        panic("clock domain with zero frequency");
}

Tick
ClockDomain::cyclesToTicks(Cycles c) const
{
    return static_cast<Tick>(
        std::llround(static_cast<double>(c) * periodPs_));
}

Cycles
ClockDomain::usToCycles(double us) const
{
    return static_cast<Cycles>(
        std::llround(us * 1e-6 * static_cast<double>(freqHz_)));
}

} // namespace qpip::sim
