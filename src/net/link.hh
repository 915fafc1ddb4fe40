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
 * event queue, an optional cross-partition outbox and a capture tap.
 * Unbound, the queue is the link's own; bind() swaps in each sending
 * partition's. Each direction also counts for itself, in every run
 * mode, into its own LinkCounters registered as "<link>.side0" and
 * "<link>.side1", and is the only writer of that set. Each direction
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
#include <string>

#include "net/fault.hh"
#include "net/packet.hh"
#include "sim/partition.hh"
#include "sim/random.hh"
#include "sim/sim_object.hh"
#include "sim/stat_registry.hh"
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
 * Transmit and fault counters of one link direction, written only by
 * the partition that direction sends in. A link's totals are the sum
 * of its two sides.
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
class Link : public sim::SimObject
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
     * Parallel mode: bind the transmitter of each side to its sending
     * partition, @p sides indexed by side. From then on a direction
     * schedules on its bound queue; it keeps its counters and its
     * fault stream. Wired up by net::partitionFabric during setup.
     * Panics if both directions tap one writer and now run on
     * different queues, which would race on it.
     */
    void bind(const std::array<LinkBoundary, 2> &sides);

    /** What @p side's direction has counted. */
    const LinkCounters &
    counters(int side) const
    {
        return dir_.at(static_cast<std::size_t>(side)).counters;
    }

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
     * at the tick serialization starts. Two directions that run on
     * different queues may not share a writer. See net/pcap.hh.
     */
    void setSideTap(int side, PcapWriter &writer);

  private:
    /** One transmitter and the context it runs in. */
    struct Direction
    {
        NetReceiver *receiver = nullptr;
        sim::Tick busyUntil = 0;
        sim::EventQueue *eq = nullptr;
        /** Keys this direction's arrivals. */
        sim::EventSource source{0};
        /** Cross-partition channel to the receiver, or nullptr. */
        sim::Mailbox *outbox = nullptr;
        PcapWriter *tap = nullptr;
        LinkCounters counters;
        /**
         * This direction's fault stream: (seed, link name, side). After
         * the counters, so a fault-free send, which never draws, reads
         * one run of fields.
         */
        sim::Random faultRng;
        /** Registers counters as "<link>.side<n>". */
        sim::StatGroup stats;
    };

    void checkTaps() const;

    LinkConfig cfg_;
    FaultConfig faultCfg_;
    std::array<Direction, 2> dir_;
};

} // namespace qpip::net
