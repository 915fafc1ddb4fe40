/**
 * @file
 * A cut-through crossbar switch in the Myrinet mold. Forwarding uses a
 * static table from fabric NodeId to output port (built by the
 * topology helper — the moral equivalent of Myrinet's source routes
 * resolved at route-computation time, or a learned Ethernet FDB).
 *
 * Cut-through means a fixed per-hop routing latency independent of
 * packet length; output contention is resolved by the attached Link's
 * transmitter serialization.
 */

#pragma once

#include <memory>
#include <vector>

#include "net/link.hh"
#include "net/packet.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace qpip::net {

/**
 * The switch. Create it, then connect links to numbered ports and
 * install routes.
 */
class Switch : public sim::SimObject
{
  public:
    /**
     * @param routing_delay fixed cut-through per-hop latency.
     */
    Switch(sim::Simulation &sim, std::string name,
           sim::Tick routing_delay = 300 * sim::oneNs);

    /**
     * Connect @p link's @p link_side to a new switch port.
     * @return the port number.
     */
    int connect(Link &link, int link_side);

    /** Route packets destined to @p node out of @p port. */
    void addRoute(NodeId node, int port);

    sim::Counter forwarded;
    sim::Counter unroutableDrops;

  private:
    /** Per-port receiver shim so onPacket knows the ingress port. */
    class Port : public NetReceiver
    {
      public:
        Port(Switch &sw, int num, Link &link, int link_side)
            : sw_(sw), num_(num), link_(link), linkSide_(link_side)
        {}

        void onPacket(PacketPtr pkt) override;

        Link &link() { return link_; }
        int linkSide() const { return linkSide_; }

      private:
        Switch &sw_;
        int num_;
        Link &link_;
        int linkSide_;
    };

    void forward(PacketPtr pkt, int in_port);

    sim::Tick routingDelay_;
    std::vector<std::unique_ptr<Port>> ports_;
    /** Egress port by node id (dense: hosts are numbered 0..n-1); -1: none. */
    std::vector<int> routes_;
};

} // namespace qpip::net
