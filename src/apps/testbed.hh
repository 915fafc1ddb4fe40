/**
 * @file
 * Canned experiment fabrics. Every benchmark and integration test in
 * the paper runs on a two-or-more-node star; these builders wire up
 * the three systems under test:
 *
 *  - SocketsTestbed + gigE      -> the IP/GigE baseline
 *  - SocketsTestbed + myrinetIp -> the IP/Myrinet (GM link) baseline
 *  - QpipTestbed                -> the QPIP prototype
 *
 * Both derive from Testbed, which owns what they share. Hosts get
 * addresses 10.0.0.<i+1> (v4 baselines) or fd00::<i+1> (QPIP's
 * IPv6), with routes and fabric addresses installed both ways.
 */

#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "host/host.hh"
#include "net/topology.hh"
#include "nic/eth_nic.hh"
#include "nic/qpip_nic.hh"
#include "qpip/qpip.hh"
#include "sim/parallel_engine.hh"
#include "sim/simulation.hh"

namespace qpip::apps {

/** Which baseline fabric a sockets testbed models. */
enum class SocketsFabric { GigabitEthernet, MyrinetIp };

/**
 * Which fabric shape wires the hosts together. FatTree picks its
 * radix from the host count; FatTreeK8/FatTreeK16 fix the switch
 * radix (8/16 ports) the way a real datacenter part would, scaling
 * edge count with hosts — k=8 carries up to 128 hosts at 4 hosts per
 * edge switch, k=16 up to 1024 at 8.
 */
enum class FabricTopology { Star, DualStar, FatTree, FatTreeK8,
                            FatTreeK16 };

/** Address family a testbed assigns to its nodes. */
enum class IpFamily { V4, V6 };

/**
 * The QPIP prototype's "native" link MTU: a 16 KB message-segment
 * plus TCP/IPv6 headers rides unfragmented (Myrinet supports
 * arbitrary MTUs).
 */
constexpr std::uint32_t qpipNativeMtu = 16384 + 128;

/**
 * The scaffolding every testbed shares: the simulation, the fabric,
 * the hosts and their addresses, and the teardown that releases what
 * a run left holding itself alive. The
 * subclasses add their NICs (and QPIP's verbs providers) and call
 * teardown() first thing in their destructors, while those still
 * exist.
 */
class Testbed
{
  public:
    sim::Simulation &sim() { return sim_; }
    /** Host @p i (shallow const, like the owning pointer). */
    host::Host &host(std::size_t i) const { return *hosts_.at(i); }
    net::Fabric &fabric() { return *fabric_; }
    std::size_t numHosts() const { return hosts_.size(); }

    /**
     * Set the engine's worker count and split its one partition by
     * switch: each switch's hosts (host, NIC and spoke) share its
     * partition, so only switch-to-switch links cross partitions
     * (net::partitionFabric). A one-switch star stays one partition.
     * Call once, after construction and before the first run.
     * threads=1 runs the identical partitioned schedule on one thread
     * — the bit-identity baseline.
     */
    void enableParallel(int threads);
    sim::ParallelEngine *engine() { return &sim_.engine(); }

    /**
     * The partition host @p i runs in, where objects of its own built
     * outside the testbed belong (partition 0 until enableParallel).
     */
    sim::Partition &partitionOf(std::size_t i) const
    {
        return *hostParts_.at(i);
    }

    /** The address of host @p i with @p port. */
    inet::SockAddr addr(std::size_t i, std::uint16_t port) const;

    /**
     * Keep @p loop, a callback loop that captures its own shared_ptr,
     * until teardown, then reset it. The loop and what it captured
     * live as long as the simulation can run it, as the cycle kept
     * them; the reset frees them while hosts and NICs still exist.
     */
    template <typename Sig>
    void
    releaseAtTeardown(const std::shared_ptr<std::function<Sig>> &loop)
    {
        loops_.push_back([loop] { *loop = nullptr; });
    }

  protected:
    /** An empty @p topology fabric of @p link for @p n_hosts. */
    Testbed(std::uint64_t seed, IpFamily family, net::LinkConfig link,
            FabricTopology topology, std::size_t n_hosts);
    ~Testbed() = default;

    /**
     * Attach the next host, "host<i>", to the fabric as node i.
     * @return its spoke, for the subclass's NIC.
     */
    net::Link &addHost(const host::HostCostModel &costs);

    /** Host @p i's address: 10.0.0.<i+1> or fd00::<i+1>. */
    inet::InetAddr addrOf(std::size_t i) const;

    /** Route every host to every other through @p routes(i). */
    void meshRoutes(
        const std::function<inet::NeighborTable &(std::size_t)> &routes);

    /**
     * Release everything a run left holding itself alive, while the
     * model objects still exist: pending events, the loops registered
     * with releaseAtTeardown, then the callbacks sockets hold for
     * their owners. Ends with the event queues cleared.
     */
    void teardown();

  private:
    /**
     * Declared before the model objects: its engine owns the
     * partition event queues, which must outlive every host/NIC
     * holding event handles into them. teardown() parks the worker
     * pool before any model teardown begins.
     */
    sim::Simulation sim_;
    IpFamily family_;
    /** Each host's partition, by index. */
    std::vector<sim::Partition *> hostParts_;
    std::unique_ptr<net::Fabric> fabric_;
    std::vector<std::unique_ptr<host::Host>> hosts_;
    /** Loop resets for teardown (releaseAtTeardown). */
    std::vector<std::function<void()>> loops_;
};

/**
 * N hosts with the host-resident stack over a conventional NIC, on
 * IPv4.
 */
class SocketsTestbed : public Testbed
{
  public:
    SocketsTestbed(std::size_t n_hosts, SocketsFabric fabric_kind,
                   std::uint64_t seed = 1,
                   host::HostCostModel costs = host::HostCostModel{},
                   FabricTopology topology = FabricTopology::Star);
    ~SocketsTestbed();

    nic::EthNic &nicOf(std::size_t i) { return *nics_.at(i); }

    /** MTU-derived TCP config for this fabric. */
    inet::TcpConfig tcpConfig() const;

  private:
    /** Destroyed before the hosts they deliver to. */
    std::vector<std::unique_ptr<nic::EthNic>> nics_;
};

/**
 * N hosts with QPIP NICs on a Myrinet fabric.
 */
class QpipTestbed : public Testbed
{
  public:
    QpipTestbed(std::size_t n_hosts, std::uint32_t mtu = qpipNativeMtu,
                std::uint64_t seed = 1,
                nic::QpipNicParams nic_params = nic::QpipNicParams{},
                host::HostCostModel costs = host::HostCostModel{},
                IpFamily family = IpFamily::V6,
                FabricTopology topology = FabricTopology::Star);

    /**
     * Heterogeneous variant: one QpipNicParams per host (size must
     * equal @p n_hosts). Lets an experiment pin, say, a tiny context
     * cache on the system under test while its load generator runs
     * uncontended.
     */
    QpipTestbed(std::size_t n_hosts, std::uint32_t mtu,
                std::uint64_t seed,
                std::vector<nic::QpipNicParams> nic_params,
                host::HostCostModel costs = host::HostCostModel{},
                IpFamily family = IpFamily::V6,
                FabricTopology topology = FabricTopology::Star);
    ~QpipTestbed();

    nic::QpipNic &nicOf(std::size_t i) { return *nics_.at(i); }
    verbs::Provider &provider(std::size_t i)
    {
        return *providers_.at(i);
    }

  private:
    /** Destroyed before the hosts; providers before their NICs. */
    std::vector<std::unique_ptr<nic::QpipNic>> nics_;
    std::vector<std::unique_ptr<verbs::Provider>> providers_;
};

/**
 * One host's measurement window, opened and closed from that host's
 * own simulated callbacks (connect or accept, then its last event):
 * a partitioned run measures what the serial run does.
 */
struct HostWindow
{
    sim::Tick t0 = 0;
    sim::Tick busy0 = 0;
    sim::Tick t1 = 0;
    sim::Tick busy1 = 0;

    void open(host::Host &h);
    void close(host::Host &h);
    /** Ticks from open to close (0 until closed). */
    sim::Tick span() const { return t1 > t0 ? t1 - t0 : 0; }
    /** Host CPU busy fraction over the window (0 until closed). */
    double
    cpuUtil() const
    {
        return host::CpuModel::utilization(busy1 - busy0, span());
    }
};

/**
 * The one run lifecycle of a harness. Each flow starts from its own
 * connect or accept callback and, once over, records its done tick
 * from its own callback, into its own slot. run() runs until every
 * flow is done, then on to the stop tick: the latest done tick plus
 * the fabric's horizon reach (net::horizonReach), worked out from its
 * switch-to-switch lookaheads, where the harness reads its results
 * and counters. Unpartitioned or partitioned, a run has then executed
 * exactly the events below the stop tick; on a one-switch star the
 * reach is 0 and a run stops at its deciding event. Callbacks hold
 * copies, which share the slots.
 */
class FlowRun
{
  public:
    /** @p flows flows on @p bed, none done. */
    FlowRun(Testbed &bed, std::size_t flows);
    /** The same on a hand-built @p sim wired by @p fabric. */
    FlowRun(sim::Simulation &sim, const net::Fabric &fabric,
            std::size_t flows);

    /** Flow @p k finished at @p at, its own object's clock. */
    void done(std::size_t k, sim::Tick at) const { (*doneAt_)[k] = at; }
    bool isDone(std::size_t k) const
    {
        return (*doneAt_)[k] != sim::maxTick;
    }

    /**
     * Run until every flow is done or runBudget has passed, then to
     * the stop tick (the deadline, if a flow is not done), where
     * Simulation::now() stands on return. Panics if a partition has
     * already run past the stop tick.
     * @return whether every flow is done.
     */
    bool run() const;

  private:
    /** Simulated time a run() allows its flows. */
    static constexpr sim::Tick runBudget = 1200 * sim::oneSec;

    sim::Simulation *sim_;
    sim::Tick grace_;
    std::shared_ptr<std::vector<sim::Tick>> doneAt_;
};

/** MB/s (2^20 bytes) of @p bytes moved in @p ticks; 0 for none. */
double mbPerSec(std::uint64_t bytes, sim::Tick ticks);

} // namespace qpip::apps
