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
 * Hosts get addresses 10.0.0.<i+1> (v4 baselines) or fd00::<i+1>
 * (QPIP's IPv6), with routes and fabric addresses installed both
 * ways.
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
 * N hosts with the host-resident stack over a conventional NIC.
 */
class SocketsTestbed
{
  public:
    SocketsTestbed(std::size_t n_hosts, SocketsFabric fabric_kind,
                   std::uint64_t seed = 1,
                   host::HostCostModel costs = host::HostCostModel{},
                   FabricTopology topology = FabricTopology::Star);
    ~SocketsTestbed();

    sim::Simulation &sim() { return sim_; }
    host::Host &host(std::size_t i) { return *hosts_.at(i); }
    nic::EthNic &nicOf(std::size_t i) { return *nics_.at(i); }
    net::Fabric &fabric() { return *fabric_; }
    std::size_t numHosts() const { return hosts_.size(); }

    /**
     * Shard the testbed across a parallel engine: one partition per
     * host (host + NIC + the sending side of its spoke), one per
     * switch, with the fabric's minimum propagation delay as the
     * conservative lookahead. Call once, after construction and
     * before the first run. threads=1 runs the identical partitioned
     * schedule on one thread — the bit-identity baseline.
     */
    void enableParallel(int threads);
    sim::ParallelEngine *engine() { return engine_.get(); }

    /** The v4 address of host @p i with @p port. */
    inet::SockAddr addr(std::size_t i, std::uint16_t port) const;

    /** MTU-derived TCP config for this fabric. */
    inet::TcpConfig tcpConfig() const;

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

  private:
    sim::Simulation sim_;
    /**
     * Declared before the model objects: the engine owns the
     * partition event queues, which must outlive every host/NIC
     * holding event handles into them. The destructor parks the
     * worker pool before any model teardown begins.
     */
    std::unique_ptr<sim::ParallelEngine> engine_;
    std::unique_ptr<net::Fabric> fabric_;
    std::vector<std::unique_ptr<host::Host>> hosts_;
    std::vector<std::unique_ptr<nic::EthNic>> nics_;
    /** Loop resets for teardown (releaseAtTeardown). */
    std::vector<std::function<void()>> loops_;
};

/**
 * N hosts with QPIP NICs on a Myrinet fabric.
 */
class QpipTestbed
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

    sim::Simulation &sim() { return sim_; }
    host::Host &host(std::size_t i) { return *hosts_.at(i); }
    nic::QpipNic &nicOf(std::size_t i) { return *nics_.at(i); }
    verbs::Provider &provider(std::size_t i)
    {
        return *providers_.at(i);
    }
    net::Fabric &fabric() { return *fabric_; }
    std::size_t numHosts() const { return hosts_.size(); }

    /** See SocketsTestbed::enableParallel. */
    void enableParallel(int threads);
    sim::ParallelEngine *engine() { return engine_.get(); }

    /** The fabric address of host @p i with @p port. */
    inet::SockAddr addr(std::size_t i, std::uint16_t port) const;

    /** See SocketsTestbed::releaseAtTeardown. */
    template <typename Sig>
    void
    releaseAtTeardown(const std::shared_ptr<std::function<Sig>> &loop)
    {
        loops_.push_back([loop] { *loop = nullptr; });
    }

  private:
    sim::Simulation sim_;
    IpFamily family_;
    /** See SocketsTestbed: destroyed after the model it schedules. */
    std::unique_ptr<sim::ParallelEngine> engine_;
    std::unique_ptr<net::Fabric> fabric_;
    std::vector<std::unique_ptr<host::Host>> hosts_;
    std::vector<std::unique_ptr<nic::QpipNic>> nics_;
    std::vector<std::unique_ptr<verbs::Provider>> providers_;
    /** Loop resets for teardown (releaseAtTeardown). */
    std::vector<std::function<void()>> loops_;
};

} // namespace qpip::apps
