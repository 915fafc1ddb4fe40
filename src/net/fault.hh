/**
 * @file
 * Fault injection for links: probabilistic drop, duplication, payload
 * corruption and reorder-by-delay. The paper assumes a robust SAN
 * where "packet loss or reordering seldom occurs"; the fault injector
 * lets the test suite and the loss-sensitivity ablation bench violate
 * that assumption on purpose.
 */

#pragma once

#include "net/packet.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace qpip::net {

/** Probabilities and parameters for injected faults. */
struct FaultConfig
{
    double dropProb = 0.0;
    double dupProb = 0.0;
    double corruptProb = 0.0;
    double reorderProb = 0.0;
    /** Extra delivery delay applied to reordered packets. */
    sim::Tick reorderDelay = 20 * sim::oneUs;
};

/** What the injector decided for one packet. */
struct FaultDecision
{
    bool drop = false;
    bool duplicate = false;
    /** Extra delay to apply (0 = deliver on time). */
    sim::Tick extraDelay = 0;
};

/**
 * Stateless per-packet fault roller (the RNG carries the state).
 */
class FaultInjector
{
  public:
    explicit FaultInjector(sim::Random &rng) : rng_(rng) {}

    FaultConfig config;

    /**
     * Roll the dice for @p pkt under @p cfg. Corruption mutates the
     * packet bytes in place (a random byte is XORed with a random
     * non-zero value), which downstream checksums must catch. A
     * link's per-direction injectors roll under the config of the
     * link's shared one.
     */
    FaultDecision apply(Packet &pkt, const FaultConfig &cfg);

    /** Roll the dice for @p pkt under this injector's own config. */
    FaultDecision apply(Packet &pkt) { return apply(pkt, config); }

    sim::Counter drops;
    sim::Counter dups;
    sim::Counter corruptions;
    sim::Counter reorders;

  private:
    sim::Random &rng_;
};

} // namespace qpip::net
