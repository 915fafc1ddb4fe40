#include "net/fault.hh"

namespace qpip::net {

FaultDecision
rollFaults(Packet &pkt, const FaultConfig &cfg, sim::Random &rng)
{
    FaultDecision d;
    if (rng.bernoulli(cfg.dropProb)) {
        d.drop = true;
        return d;
    }
    if (rng.bernoulli(cfg.corruptProb) && !pkt.data.empty()) {
        auto idx = static_cast<std::size_t>(
            rng.uniformInt(0, pkt.data.size() - 1));
        auto mask = static_cast<std::uint8_t>(rng.uniformInt(1, 255));
        pkt.data[idx] ^= mask;
        d.corrupt = true;
    }
    if (rng.bernoulli(cfg.dupProb))
        d.duplicate = true;
    if (rng.bernoulli(cfg.reorderProb))
        d.extraDelay = cfg.reorderDelay;
    return d;
}

} // namespace qpip::net
