/**
 * @file
 * Fault injection for links: probabilistic drop, duplication, payload
 * corruption and reorder-by-delay. The paper assumes a robust SAN
 * where "packet loss or reordering seldom occurs"; fault injection
 * lets the test suite and the loss-sensitivity ablation bench violate
 * that assumption on purpose.
 *
 * The roll is stateless: the caller owns the random stream and counts
 * the outcomes (net::Link keeps them with its transmit counters).
 */

#pragma once

#include "net/packet.hh"
#include "sim/random.hh"
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

/** What the dice decided for one packet. */
struct FaultDecision
{
    bool drop = false;
    /** One payload byte was flipped in place. */
    bool corrupt = false;
    bool duplicate = false;
    /** Extra delay to apply (0 = deliver on time). */
    sim::Tick extraDelay = 0;
};

/**
 * Roll the dice for @p pkt under @p cfg, drawing from @p rng — a
 * stream the caller owns (each link direction has its own). Corruption
 * mutates the packet bytes in place (a random byte is XORed with a
 * random non-zero value), which downstream checksums must catch. A
 * dropped packet is never also corrupted, duplicated or delayed.
 */
FaultDecision rollFaults(Packet &pkt, const FaultConfig &cfg,
                         sim::Random &rng);

} // namespace qpip::net
