#include "net/fault.hh"

namespace qpip::net {

FaultDecision
FaultInjector::apply(Packet &pkt, const FaultConfig &cfg)
{
    FaultDecision d;
    if (rng_.bernoulli(cfg.dropProb)) {
        d.drop = true;
        drops.inc();
        return d;
    }
    if (rng_.bernoulli(cfg.corruptProb) && !pkt.data.empty()) {
        auto idx = static_cast<std::size_t>(
            rng_.uniformInt(0, pkt.data.size() - 1));
        auto mask = static_cast<std::uint8_t>(rng_.uniformInt(1, 255));
        pkt.data[idx] ^= mask;
        corruptions.inc();
    }
    if (rng_.bernoulli(cfg.dupProb)) {
        d.duplicate = true;
        dups.inc();
    }
    if (rng_.bernoulli(cfg.reorderProb)) {
        d.extraDelay = cfg.reorderDelay;
        reorders.inc();
    }
    return d;
}

} // namespace qpip::net
