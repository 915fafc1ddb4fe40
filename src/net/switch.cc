#include "net/switch.hh"

#include "sim/logging.hh"

namespace qpip::net {

using sim::panic;
using sim::warn;

Switch::Switch(sim::Simulation &sim, std::string name,
               sim::Tick routing_delay)
    : SimObject(sim, std::move(name)), routingDelay_(routing_delay)
{
    regStat("forwarded", forwarded);
    regStat("unroutableDrops", unroutableDrops);
}

int
Switch::connect(Link &link, int link_side)
{
    const int port = static_cast<int>(ports_.size());
    ports_.push_back(
        std::make_unique<Port>(*this, port, link, link_side));
    link.attach(link_side, *ports_.back());
    return port;
}

void
Switch::addRoute(NodeId node, int port)
{
    if (node >= routes_.size())
        routes_.resize(static_cast<std::size_t>(node) + 1, -1);
    routes_[node] = port;
}

void
Switch::Port::onPacket(PacketPtr pkt)
{
    sw_.forward(std::move(pkt), num_);
}

void
Switch::forward(PacketPtr pkt, int in_port)
{
    const int out_port =
        pkt->dst < routes_.size() ? routes_[pkt->dst] : -1;
    if (out_port < 0) {
        unroutableDrops.inc();
        warn("%s: no route for node %u", name().c_str(), pkt->dst);
        return;
    }
    if (out_port == in_port) {
        // A frame never goes back out its ingress port.
        unroutableDrops.inc();
        return;
    }
    forwarded.inc();
    // Ports live as long as the switch, so the deferred send may
    // hold the port by pointer (the link.cc idiom) — never by
    // reference to this frame.
    Port *port = ports_.at(static_cast<std::size_t>(out_port)).get();
    schedule(curTick() + routingDelay_, [port, pkt] {
        port->link().send(port->linkSide(), pkt);
    });
}

} // namespace qpip::net
