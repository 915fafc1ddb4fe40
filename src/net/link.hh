/**
 * @file
 * A full-duplex point-to-point link with finite bandwidth, fixed
 * propagation delay, an MTU, and per-direction store-and-forward
 * serialization. Each direction models the transmitter: packets queue
 * behind one another and occupy the wire for wireBytes()*8/bandwidth.
 *
 * Two link personalities are used by the testbeds:
 *  - Gigabit Ethernet: 1 Gb/s, 1500 B MTU, 38 B of framing overhead.
 *  - Myrinet: 2 Gb/s full duplex, arbitrary MTU, 8 B framing,
 *    effectively lossless (large queue, link-level backpressure).
 *
 * Both directions, serial or partitioned, transmit through the one
 * send(). Each direction carries the execution context it runs in: an
 * event queue, the counters it adds to, an optional cross-partition
 * outbox and a capture tap. Unbound, these are the link's own queue
 * and its public counters; bindSide() swaps in the sending
 * partition's queue and per-direction shadow counters. Each direction
 * is also its own event source: the two may run in different
 * partitions, and an arrival is keyed by the direction that sent it,
 * serial or partitioned.
 *
 * Each direction also owns its fault stream, seeded from the
 * simulation seed, the link's name and the side, and rolls it under
 * the link's one FaultConfig. Binding does not touch it, so a
 * direction's k-th fault decision is the same in serial and
 * partitioned runs, and no other object's draws can shift it.
 */

#pragma once

#include <array>
#include <memory>
#include <string>

#include "net/fault.hh"
#include "net/packet.hh"
#include "sim/partition.hh"
#include "sim/random.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace qpip::net {

class PcapWriter;

/**
 * Parallel mode: the execution-context binding of one link
 * direction. The transmitter of a side always runs in the sender's
 * partition; @p outbox carries deliveries toward a receiver living in
 * a different partition (nullptr when both endpoints share one).
 */
struct LinkBoundary
{
    /** The sending partition's event queue (drives this direction). */
    sim::EventQueue *eq = nullptr;
    /** Cross-partition channel to the receiver, or nullptr. */
    sim::Mailbox *outbox = nullptr;
};

/** Static parameters of a link. */
struct LinkConfig
{
    /** Raw bit rate in bits per second. */
    double bitsPerSec = 1e9;
    /** One-way propagation + phy delay. */
    sim::Tick propDelay = sim::oneUs;
    /** Maximum network-layer bytes per frame (excl. link overhead). */
    std::uint32_t mtu = 1500;
    /** Modeled link header/trailer bytes added to every frame. */
    std::uint32_t overheadBytes = 38;
    /** Transmit queue capacity in packets (drop-tail beyond). */
    std::size_t txQueueCap = 1024;
};

/** Canned Gigabit Ethernet link parameters (Intel Pro1000-like). */
LinkConfig gigabitEthernetLink();

/** Canned Myrinet 2000 link parameters (2 Gb/s, LANai 9 era). */
LinkConfig myrinetLink(std::uint32_t mtu = 16384);

/**
 * Transmit and fault counters. A Link's public set holds its totals;
 * each bound direction adds into a shadow set that
 * foldBoundaryStats() drains.
 */
struct LinkCounters
{
    sim::Counter packetsSent;
    sim::Counter bytesSent;
    sim::Counter oversizeDrops;
    sim::Counter queueDrops;
    /** Outcomes of the fault dice (see net/fault.hh). */
    sim::Counter faultDrops;
    sim::Counter faultDups;
    sim::Counter faultCorruptions;
    sim::Counter faultReorders;
};

/**
 * The link itself. Side 0 and side 1 are symmetrical.
 */
class Link : public sim::SimObject, public LinkCounters
{
  public:
    Link(sim::Simulation &sim, std::string name, LinkConfig config);

    /** Attach the receiver for @p side (0 or 1). */
    void attach(int side, NetReceiver &receiver);

    /**
     * Enqueue @p pkt for transmission from @p from_side toward the
     * other side. Oversized packets and queue overflow are dropped
     * (counted), mirroring real hardware.
     * @return false if the packet was dropped at enqueue time.
     */
    bool send(int from_side, PacketPtr pkt);

    /** Serialization time of @p wire_bytes on this link. */
    sim::Tick serializationDelay(std::size_t wire_bytes) const;

    const LinkConfig &config() const { return cfg_; }

    /** Fault probabilities, shared by both directions. */
    FaultConfig &faultConfig() { return faultCfg_; }

    /**
     * Parallel mode: bind the transmitter of @p side to its sending
     * partition. From then on this direction schedules on the bound
     * queue and counts into per-direction shadow counters (folded into
     * the public ones by foldBoundaryStats()); it keeps its own fault
     * stream. Wired up by net::partitionFabric during setup. Panics if
     * both directions tap one writer, which the two sending partitions
     * would race on.
     */
    void bindSide(int side, const LinkBoundary &boundary);

    /**
     * The cross-partition channel @p side's direction delivers
     * through: nullptr when unbound or when both ends share a
     * partition.
     */
    sim::Mailbox *
    outbox(int side) const
    {
        return dir_.at(static_cast<std::size_t>(side)).outbox;
    }

    /**
     * Record every frame that occupies the wire from @p side into
     * @p writer: after fault injection, so corrupted bytes are seen,
     * at the tick serialization starts. On a bound link the two
     * directions may not share a writer. See net/pcap.hh.
     */
    void setSideTap(int side, PcapWriter &writer);

    /**
     * Fold the per-direction shadow counters (every LinkCounters
     * field) into the public counters and reset them. Sums are
     * commutative, so the result is independent of execution
     * interleaving; registered as an engine fold hook.
     */
    void foldBoundaryStats();

  private:
    /** One transmitter and the context it runs in. */
    struct Direction
    {
        NetReceiver *receiver = nullptr;
        sim::Tick busyUntil = 0;
        sim::EventQueue *eq = nullptr;
        /** Keys this direction's arrivals. */
        sim::EventSource source{0};
        LinkCounters *counters = nullptr;
        /** Cross-partition channel to the receiver, or nullptr. */
        sim::Mailbox *outbox = nullptr;
        PcapWriter *tap = nullptr;
        /** Set once bound: what counters points into. */
        std::unique_ptr<LinkCounters> shadow;
        /**
         * This direction's fault stream: (seed, link name, side). Last,
         * so a fault-free send, which never draws, reads one run of
         * pointers.
         */
        sim::Random faultRng;
    };

    void checkTaps() const;

    LinkConfig cfg_;
    FaultConfig faultCfg_;
    std::array<Direction, 2> dir_;
};

} // namespace qpip::net
