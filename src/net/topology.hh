/**
 * @file
 * Topology builders. Every experiment in the paper runs on a star (N
 * hosts, one switch), and the scale-out sweeps add two multi-switch
 * fabrics: a dual-star (two switches joined by a trunk, half the
 * hosts on each) and a 2-level fat-tree (edge switches with host
 * spokes, fully connected to spine switches).
 *
 * All fabrics share the Fabric interface: addNode() returns the
 * spoke link whose side 0 the host's NIC attaches to, and edges()
 * exposes the link graph with per-side attachments — which is what
 * net::partitionFabric uses to shard a fabric across the parallel
 * engine (each switch in its own partition, every host in its leaf
 * switch's, so only switch-to-switch links cross partitions) and give
 * every cross-partition edge the lookahead of the links it carries.
 */

#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "net/link.hh"
#include "net/switch.hh"

namespace qpip::sim {
class ParallelEngine;
class Partition;
} // namespace qpip::sim

namespace qpip::net {

/**
 * Common base of all fabric builders: owns the switches and links,
 * records the edge graph.
 */
class Fabric
{
  public:
    /** How one end of a fabric link attaches. */
    struct Attachment
    {
        bool isSwitch = false;
        /** Host NodeId, or index into the fabric's switch list. */
        std::uint32_t index = 0;
    };

    /** One link plus what its two sides attach to. */
    struct Edge
    {
        Link *link = nullptr;
        std::array<Attachment, 2> ends; // indexed by link side
    };

    Fabric(sim::Simulation &sim, std::string name,
           LinkConfig link_config);
    virtual ~Fabric() = default;

    Fabric(const Fabric &) = delete;
    Fabric &operator=(const Fabric &) = delete;

    /**
     * Add a spoke for fabric address @p node.
     * @return the link; the caller attaches its NIC to side 0.
     */
    virtual Link &addNode(NodeId node) = 0;

    Link &linkFor(NodeId node);

    Switch &switchAt(std::size_t i) { return *switches_.at(i); }
    std::size_t numSwitches() const { return switches_.size(); }

    const std::vector<Edge> &edges() const { return edges_; }

    const std::string &name() const { return name_; }

  protected:
    /** Create a switch (recorded for edges/partitioning). */
    Switch &makeSwitch(const std::string &name);

    /**
     * Create the spoke link for @p node and connect its side 1 to
     * switch @p sw_index (side 0 is the host's).
     * @return the switch port it landed on.
     */
    int makeSpoke(NodeId node, std::size_t sw_index);

    /**
     * Create an inter-switch link @p name from switch @p a (side 0)
     * to switch @p b (side 1).
     * @return the ports it landed on: {port on a, port on b}.
     */
    std::array<int, 2> makeTrunk(const std::string &name,
                                 std::size_t a, std::size_t b);

    sim::Simulation &sim_;
    std::string name_;
    LinkConfig linkCfg_;
    std::vector<std::unique_ptr<Switch>> switches_;
    std::vector<std::pair<NodeId, std::unique_ptr<Link>>> links_;
    std::vector<std::unique_ptr<Link>> trunks_;
    std::vector<Edge> edges_;
};

/**
 * A star of point-to-point links around one switch.
 */
class StarFabric : public Fabric
{
  public:
    /**
     * @param link_config parameters applied to every spoke link.
     */
    StarFabric(sim::Simulation &sim, std::string name,
               LinkConfig link_config);

    Link &addNode(NodeId node) override;

    Switch &fabricSwitch() { return *switches_.front(); }
};

/**
 * Two stars joined by a trunk link: hosts [0, n/2) on switch 0, the
 * rest on switch 1. The smallest fabric where traffic crosses a
 * multi-hop path, and the parallel engine's headline workload.
 */
class DualStarFabric : public Fabric
{
  public:
    /**
     * @param n_hosts total hosts the fabric will carry (fixes the
     *        half split; addNode accepts ids [0, n_hosts)).
     */
    DualStarFabric(sim::Simulation &sim, std::string name,
                   LinkConfig link_config, std::size_t n_hosts);

    Link &addNode(NodeId node) override;

  private:
    std::size_t switchOf(NodeId node) const;

    std::size_t nHosts_;
    std::size_t half_;
    /** Trunk port on each switch (toward the other). */
    std::array<int, 2> trunkPort_{};
};

/**
 * A 2-level fat-tree: hosts attach to edge switches
 * (@p hosts_per_edge spokes each), every edge switch uplinks to
 * every spine switch, and flows to host d ride spine d % n_spines —
 * deterministic d-mod load balancing across the spine stage.
 */
class FatTreeFabric : public Fabric
{
  public:
    FatTreeFabric(sim::Simulation &sim, std::string name,
                  LinkConfig link_config, std::size_t n_hosts,
                  std::size_t hosts_per_edge = 2,
                  std::size_t n_spines = 2);

    Link &addNode(NodeId node) override;

    std::size_t numEdgeSwitches() const { return nEdges_; }
    std::size_t numSpineSwitches() const { return nSpines_; }

  private:
    std::size_t edgeOf(NodeId node) const;
    std::size_t spineOf(NodeId node) const;

    std::size_t nHosts_;
    std::size_t hostsPerEdge_;
    std::size_t nEdges_;
    std::size_t nSpines_;
    /** upPortOnEdge_[e][s]: port on edge e toward spine s. */
    std::vector<std::vector<int>> upPortOnEdge_;
    /** upPortOnSpine_[s][e]: port on spine s toward edge e. */
    std::vector<std::vector<int>> upPortOnSpine_;
};

/**
 * Build the k-ary 2-level fat-tree: k-port switches, so every edge
 * switch carries k/2 host spokes and k/2 spine uplinks. k=8 reaches
 * 128 hosts at 32 edge switches, k=16 reaches 1024 at 128 — the
 * datacenter-scale shapes the parallel-engine scaling sweep runs on.
 * @p n_hosts must be a positive multiple of k/2, bounded by what the
 * edge tier can carry; @p k must be even and >= 4.
 */
std::unique_ptr<FatTreeFabric>
makeKAryFatTree(sim::Simulation &sim, std::string name,
                LinkConfig link_config, std::size_t k,
                std::size_t n_hosts);

/**
 * Shard @p fabric across @p engine: one partition per switch, named
 * after it (switch 0 keeps partition 0, the others get new ones),
 * holding the switch and every host whose spoke attaches to it. Every
 * link direction is bound to its sending partition; only a direction
 * between two partitions, which in these fabrics means switch to
 * switch, gets a mailbox toward its receiver,
 * declaring its link's propagation delay plus serialization floor as
 * the edge's lookahead (per-edge horizons). A direction's counters
 * stay its own: only its sending partition writes them. Call after
 * every addNode (the edge list must be
 * complete). The switches are bound here; binding each host's own
 * objects is the caller's, since only it knows their names.
 * @return each host's partition, indexed by NodeId (nullptr for an
 *         id no edge names).
 */
std::vector<sim::Partition *> partitionFabric(sim::ParallelEngine &engine,
                                              Fabric &fabric);

/**
 * How far past the earliest pending event N any partition of
 * partitionFabric(engine, @p fabric) can run within one epoch: the
 * longest shortest lookahead path between two switches, a switch's
 * shortest round trip included, and 0 for one switch. By the engine's
 * horizon formula, partition q's floor is at most N plus the shortest
 * path to q from the partition holding N, and p's horizon is at most
 * a neighbour q's floor plus the edge q->p: a shortest path of at
 * least one edge to p, which for p itself is its round trip. Every
 * event an epoch runs lies below its partition's horizon.
 */
sim::Tick horizonReach(const Fabric &fabric);

} // namespace qpip::net
