#include "net/topology.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/parallel_engine.hh"

namespace qpip::net {

// --- Fabric ---------------------------------------------------------

Fabric::Fabric(sim::Simulation &sim, std::string name,
               LinkConfig link_config)
    : sim_(sim), name_(std::move(name)), linkCfg_(link_config)
{}

Link &
Fabric::linkFor(NodeId node)
{
    for (auto &[id, link] : links_) {
        if (id == node)
            return *link;
    }
    sim::panic("%s: unknown node %u", name_.c_str(), node);
}

Switch &
Fabric::makeSwitch(const std::string &name)
{
    switches_.push_back(std::make_unique<Switch>(sim_, name));
    return *switches_.back();
}

int
Fabric::makeSpoke(NodeId node, std::size_t sw_index)
{
    auto link = std::make_unique<Link>(
        sim_, name_ + ".link" + std::to_string(node), linkCfg_);
    const int port = switches_.at(sw_index)->connect(*link, 1);
    Edge edge;
    edge.link = link.get();
    edge.ends[0] = Attachment{false, node};
    edge.ends[1] =
        Attachment{true, static_cast<std::uint32_t>(sw_index)};
    edges_.push_back(edge);
    links_.emplace_back(node, std::move(link));
    return port;
}

std::array<int, 2>
Fabric::makeTrunk(const std::string &name, std::size_t a,
                  std::size_t b)
{
    auto link = std::make_unique<Link>(sim_, name, linkCfg_);
    const int port_a = switches_.at(a)->connect(*link, 0);
    const int port_b = switches_.at(b)->connect(*link, 1);
    Edge edge;
    edge.link = link.get();
    edge.ends[0] = Attachment{true, static_cast<std::uint32_t>(a)};
    edge.ends[1] = Attachment{true, static_cast<std::uint32_t>(b)};
    edges_.push_back(edge);
    trunks_.push_back(std::move(link));
    return {port_a, port_b};
}

// --- StarFabric -----------------------------------------------------

StarFabric::StarFabric(sim::Simulation &sim, std::string name,
                       LinkConfig link_config)
    : Fabric(sim, std::move(name), link_config)
{
    makeSwitch(name_ + ".switch");
}

Link &
StarFabric::addNode(NodeId node)
{
    const int port = makeSpoke(node, 0);
    switches_.front()->addRoute(node, port);
    return *links_.back().second;
}

// --- DualStarFabric -------------------------------------------------

DualStarFabric::DualStarFabric(sim::Simulation &sim, std::string name,
                               LinkConfig link_config,
                               std::size_t n_hosts)
    : Fabric(sim, std::move(name), link_config), nHosts_(n_hosts),
      half_((n_hosts + 1) / 2)
{
    makeSwitch(name_ + ".switch0");
    makeSwitch(name_ + ".switch1");
    trunkPort_ = makeTrunk(name_ + ".trunk", 0, 1);
}

std::size_t
DualStarFabric::switchOf(NodeId node) const
{
    return node < half_ ? 0 : 1;
}

Link &
DualStarFabric::addNode(NodeId node)
{
    if (node >= nHosts_) {
        sim::panic("%s: node %u out of range (n_hosts=%zu)",
                   name_.c_str(), node, nHosts_);
    }
    const std::size_t own = switchOf(node);
    const std::size_t other = own ^ 1;
    const int port = makeSpoke(node, own);
    switches_.at(own)->addRoute(node, port);
    // The far star reaches this host over the trunk.
    switches_.at(other)->addRoute(node, trunkPort_.at(other));
    return *links_.back().second;
}

// --- FatTreeFabric --------------------------------------------------

FatTreeFabric::FatTreeFabric(sim::Simulation &sim, std::string name,
                             LinkConfig link_config,
                             std::size_t n_hosts,
                             std::size_t hosts_per_edge,
                             std::size_t n_spines)
    : Fabric(sim, std::move(name), link_config), nHosts_(n_hosts),
      hostsPerEdge_(hosts_per_edge),
      nEdges_((n_hosts + hosts_per_edge - 1) / hosts_per_edge),
      nSpines_(n_spines)
{
    if (hosts_per_edge == 0 || n_spines == 0)
        sim::panic("%s: degenerate fat-tree shape", name_.c_str());
    for (std::size_t e = 0; e < nEdges_; ++e)
        makeSwitch(name_ + ".edge" + std::to_string(e));
    for (std::size_t s = 0; s < nSpines_; ++s)
        makeSwitch(name_ + ".spine" + std::to_string(s));

    upPortOnEdge_.resize(nEdges_, std::vector<int>(nSpines_, -1));
    upPortOnSpine_.resize(nSpines_, std::vector<int>(nEdges_, -1));
    for (std::size_t e = 0; e < nEdges_; ++e) {
        for (std::size_t s = 0; s < nSpines_; ++s) {
            const auto ports =
                makeTrunk(name_ + ".up" + std::to_string(e) + "_" +
                              std::to_string(s),
                          e, nEdges_ + s);
            upPortOnEdge_[e][s] = ports[0];
            upPortOnSpine_[s][e] = ports[1];
        }
    }
}

std::size_t
FatTreeFabric::edgeOf(NodeId node) const
{
    return node / hostsPerEdge_;
}

std::size_t
FatTreeFabric::spineOf(NodeId node) const
{
    return node % nSpines_;
}

Link &
FatTreeFabric::addNode(NodeId node)
{
    if (node >= nHosts_) {
        sim::panic("%s: node %u out of range (n_hosts=%zu)",
                   name_.c_str(), node, nHosts_);
    }
    const std::size_t own = edgeOf(node);
    const std::size_t spine = spineOf(node);
    const int port = makeSpoke(node, own);
    switches_.at(own)->addRoute(node, port);
    // Remote edges climb to this host's spine; the spine descends to
    // the owning edge.
    for (std::size_t e = 0; e < nEdges_; ++e) {
        if (e != own) {
            switches_.at(e)->addRoute(node, upPortOnEdge_[e][spine]);
        }
    }
    switches_.at(nEdges_ + spine)
        ->addRoute(node, upPortOnSpine_[spine][own]);
    return *links_.back().second;
}

std::unique_ptr<FatTreeFabric>
makeKAryFatTree(sim::Simulation &sim, std::string name,
                LinkConfig link_config, std::size_t k,
                std::size_t n_hosts)
{
    if (k < 4 || k % 2 != 0)
        sim::panic("%s: k-ary fat-tree needs even k >= 4 (k=%zu)",
                   name.c_str(), k);
    const std::size_t radix = k / 2;
    if (n_hosts == 0 || n_hosts % radix != 0) {
        sim::panic("%s: n_hosts=%zu is not a positive multiple of "
                   "k/2=%zu",
                   name.c_str(), n_hosts, radix);
    }
    return std::make_unique<FatTreeFabric>(
        sim, std::move(name), link_config, n_hosts, radix, radix);
}

// --- partitionFabric ------------------------------------------------

namespace {

/**
 * The lookahead of a mailbox edge carrying @p link: its propagation
 * delay plus its serialization floor. Arrival is busyUntil +
 * propDelay, and even an empty frame occupies the wire for the link
 * overhead bytes, so no delivery can undercut this.
 */
sim::Tick
edgeLookahead(const Link &link)
{
    return link.config().propDelay +
           link.serializationDelay(link.config().overheadBytes);
}

} // namespace

std::vector<sim::Partition *>
partitionFabric(sim::ParallelEngine &engine, Fabric &fabric)
{
    std::vector<sim::Partition *> sw_parts;
    sw_parts.reserve(fabric.numSwitches());
    for (std::size_t i = 0; i < fabric.numSwitches(); ++i) {
        Switch &sw = fabric.switchAt(i);
        // Switch 0's group keeps partition 0, where everything starts.
        sim::Partition &p = i == 0 ? engine.partition(0)
                                   : engine.addPartition(sw.name());
        p.rename(sw.name());
        engine.assignByPrefix(sw.name(), p);
        sw_parts.push_back(&p);
    }

    // Each host joins the switch its spoke attaches to, so spokes
    // never cross a partition. A spoke has its host on side 0 and its
    // switch on side 1 (Fabric::makeSpoke); a trunk has switches on
    // both.
    std::vector<sim::Partition *> host_parts;
    for (const Fabric::Edge &e : fabric.edges()) {
        const Fabric::Attachment &host = e.ends[0];
        if (host.isSwitch)
            continue;
        if (host.index >= host_parts.size())
            host_parts.resize(host.index + 1, nullptr);
        host_parts[host.index] = sw_parts.at(e.ends[1].index);
    }

    const auto part_of = [&](const Fabric::Attachment &a) {
        return a.isSwitch ? sw_parts.at(a.index) : host_parts.at(a.index);
    };
    for (const Fabric::Edge &e : fabric.edges()) {
        std::array<LinkBoundary, 2> sides;
        for (std::size_t side = 0; side < sides.size(); ++side) {
            sim::Partition *src = part_of(e.ends.at(side));
            sim::Partition *dst = part_of(e.ends.at(side ^ 1));
            sides[side].eq = &src->eventQueue();
            if (src != dst) {
                // Parallel trunks between one partition pair share a
                // mailbox, which keeps the minimum lookahead.
                sides[side].outbox = &engine.mailbox(
                    *src, *dst, edgeLookahead(*e.link));
            }
        }
        e.link->bind(sides);
    }
    return host_parts;
}

/**
 * Floyd-Warshall over the switches, with no zero diagonal: d[a][b] is
 * the shortest path of at least one trunk from a to b, so d[a][a] is
 * a's shortest round trip. Fabrics carry at most a few hundred
 * switches, and a testbed works this out once.
 */
sim::Tick
horizonReach(const Fabric &fabric)
{
    const std::size_t n = fabric.numSwitches();
    std::vector<sim::Tick> d(n * n, sim::maxTick);
    for (const Fabric::Edge &e : fabric.edges()) {
        if (!e.ends[0].isSwitch || !e.ends[1].isSwitch)
            continue;
        const std::size_t a = e.ends[0].index;
        const std::size_t b = e.ends[1].index;
        const sim::Tick l = edgeLookahead(*e.link);
        d[a * n + b] = std::min(d[a * n + b], l);
        d[b * n + a] = std::min(d[b * n + a], l);
    }
    for (std::size_t k = 0; k < n; ++k) {
        for (std::size_t i = 0; i < n; ++i) {
            const sim::Tick ik = d[i * n + k];
            if (ik == sim::maxTick)
                continue;
            for (std::size_t j = 0; j < n; ++j) {
                const sim::Tick kj = d[k * n + j];
                if (kj != sim::maxTick)
                    d[i * n + j] = std::min(d[i * n + j], ik + kj);
            }
        }
    }
    sim::Tick reach = 0;
    for (const sim::Tick t : d) {
        if (t != sim::maxTick)
            reach = std::max(reach, t);
    }
    return reach;
}

} // namespace qpip::net
