/**
 * @file
 * A conventional descriptor-ring NIC for the host-based baselines:
 * the Intel Pro1000 Gigabit adapter (IP/GigE) and the Myrinet LANai
 * running GM as a plain IP link layer (IP/Myrinet). Frames DMA
 * through the adapter with finite staging bandwidth; receive raises a
 * (moderated) interrupt that hands the ring to the host stack.
 */

#pragma once

#include "host/host_stack.hh"
#include "net/link.hh"
#include "nic/dma.hh"
#include "sim/ring_fifo.hh"
#include "sim/stats.hh"

namespace qpip::nic {

/** Static NIC parameters. */
struct EthNicParams
{
    std::uint32_t mtu = 1500;
    bool checksumOffload = false;
    DmaConfig dma{264e6, sim::oneUs};
    /** Adapter-side per-packet processing (descriptor handling). */
    sim::Tick perPacketTx = sim::oneUs;
    sim::Tick perPacketRx = sim::oneUs;
    std::size_t rxRingCap = 256;
    /** Interrupt moderation delay after first frame of a burst. */
    sim::Tick intrDelay = 4 * sim::oneUs;
};

/** Pro1000-flavored defaults (1500 B MTU, moderate DMA). */
EthNicParams pro1000Params();

/**
 * GM-as-IP-link defaults: 9000 B MTU; modest effective staging
 * bandwidth because the LANai firmware store-and-forwards every
 * ethernet-emulation frame through SRAM.
 */
EthNicParams gmIpParams();

/**
 * The NIC model.
 */
class EthNic : public sim::SimObject,
               public net::NetReceiver,
               public host::HostNicDriver
{
  public:
    EthNic(sim::Simulation &sim, std::string name, host::HostStack &stack,
           net::Link &link, net::NodeId node, EthNicParams params);

    // --- HostNicDriver ----------------------------------------------
    void transmit(net::PacketPtr pkt) override;
    std::uint32_t mtu() const override { return params_.mtu; }
    net::NodeId nodeId() const override { return node_; }
    bool checksumOffload() const override
    {
        return params_.checksumOffload;
    }

    // --- NetReceiver -------------------------------------------------
    void onPacket(net::PacketPtr pkt) override;

    sim::Counter txPackets;
    sim::Counter rxPackets;
    sim::Counter rxRingDrops;
    sim::Counter interrupts;

    /** Most frames the host rx ring has held at once. */
    std::size_t rxRingPeak() const { return rxRingPeak_; }

  private:
    void raiseInterrupt();
    void serviceRing();

    host::HostStack &stack_;
    net::Link &link_;
    net::NodeId node_;
    EthNicParams params_;
    DmaEngine dma_;
    sim::RingFifo<net::PacketPtr> rxRing_;
    /** Frames whose DMA into rxRing_ has started but not finished. */
    std::size_t rxDmaInFlight_ = 0;
    std::size_t rxRingPeak_ = 0;
    bool intrPending_ = false;
};

} // namespace qpip::nic
