#include "nic/eth_nic.hh"

#include <algorithm>

#include "sim/simulation.hh"

namespace qpip::nic {

EthNicParams
pro1000Params()
{
    EthNicParams p;
    p.mtu = 1500;
    p.checksumOffload = false; // Linux 2.4-era e1000 path
    p.dma = DmaConfig{264e6, sim::oneUs};
    p.perPacketTx = sim::oneUs;
    p.perPacketRx = sim::oneUs;
    p.intrDelay = 4 * sim::oneUs;
    return p;
}

EthNicParams
gmIpParams()
{
    EthNicParams p;
    p.mtu = 9000;
    p.checksumOffload = false;
    // GM's ethernet emulation stages every frame through LANai SRAM
    // with firmware copies — the effective per-byte rate is far below
    // raw PCI.
    p.dma = DmaConfig{65e6, 2 * sim::oneUs};
    p.perPacketTx = 5 * sim::oneUs;
    p.perPacketRx = 5 * sim::oneUs;
    p.intrDelay = 4 * sim::oneUs;
    return p;
}

EthNic::EthNic(sim::Simulation &sim, std::string name,
               host::HostStack &stack, net::Link &link, net::NodeId node,
               EthNicParams params)
    : SimObject(sim, std::move(name)), stack_(stack), link_(link),
      node_(node), params_(params),
      dma_(sim, this->name() + ".dma", params.dma)
{
    link_.attach(0, *this);
    stack_.attachNic(*this);
    regStat("txPackets", txPackets);
    regStat("rxPackets", rxPackets);
    regStat("rxRingDrops", rxRingDrops);
    regStat("interrupts", interrupts);
}

void
EthNic::transmit(net::PacketPtr pkt)
{
    txPackets.inc();
    // Stage across PCI into adapter memory, then hit the wire.
    const sim::Tick done =
        dma_.charge(pkt->data.size()) + params_.perPacketTx;
    schedule(done, [this, pkt] { link_.send(0, pkt); });
}

void
EthNic::onPacket(net::PacketPtr pkt)
{
    rxPackets.inc();
    // A frame owns its ring slot from the moment its DMA starts.
    if (rxRing_.size() + rxDmaInFlight_ >= params_.rxRingCap) {
        rxRingDrops.inc();
        return;
    }
    // DMA into a host ring buffer, then interrupt (moderated).
    const sim::Tick done =
        dma_.charge(pkt->data.size()) + params_.perPacketRx;
    ++rxDmaInFlight_;
    schedule(done, [this, pkt] {
        --rxDmaInFlight_;
        rxRing_.push_back(pkt);
        rxRingPeak_ = std::max(rxRingPeak_, rxRing_.size());
        raiseInterrupt();
    });
}

void
EthNic::raiseInterrupt()
{
    if (intrPending_)
        return;
    intrPending_ = true;
    scheduleIn(params_.intrDelay, [this] { serviceRing(); });
}

void
EthNic::serviceRing()
{
    interrupts.inc();
    stack_.os().interrupt([this] {
        // The ISR hands every queued frame to the stack; packets that
        // arrive during processing are picked up by the next
        // interrupt (natural coalescing under load).
        while (!rxRing_.empty()) {
            auto pkt = rxRing_.front();
            rxRing_.pop_front();
            stack_.nicReceive(pkt);
        }
        intrPending_ = false;
    });
}

} // namespace qpip::nic
