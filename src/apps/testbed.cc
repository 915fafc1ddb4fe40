#include "apps/testbed.hh"

#include "sim/logging.hh"

namespace qpip::apps {

namespace {

inet::InetAddr
v4Of(std::size_t i)
{
    auto a = inet::Ipv4Addr::parse("10.0.0." + std::to_string(i + 1));
    return inet::InetAddr(*a);
}

inet::InetAddr
v6Of(std::size_t i)
{
    auto a = inet::Ipv6Addr::parse("fd00::" + std::to_string(i + 1));
    return inet::InetAddr(*a);
}

std::unique_ptr<net::Fabric>
makeFabric(sim::Simulation &sim, net::LinkConfig link,
           FabricTopology topology, std::size_t n_hosts)
{
    switch (topology) {
      case FabricTopology::Star:
        return std::make_unique<net::StarFabric>(sim, "fabric", link);
      case FabricTopology::DualStar:
        return std::make_unique<net::DualStarFabric>(sim, "fabric",
                                                     link, n_hosts);
      case FabricTopology::FatTree:
        return std::make_unique<net::FatTreeFabric>(sim, "fabric",
                                                    link, n_hosts);
      case FabricTopology::FatTreeK8:
        return net::makeKAryFatTree(sim, "fabric", link, 8, n_hosts);
      case FabricTopology::FatTreeK16:
        return net::makeKAryFatTree(sim, "fabric", link, 16, n_hosts);
    }
    sim::panic("makeFabric: unknown topology");
}

/** Discard every pending event, serial or partitioned. */
void
clearEvents(sim::Simulation &sim, sim::ParallelEngine *engine)
{
    if (engine != nullptr)
        engine->clearAll();
    else
        sim.eventQueue().clear();
}

/**
 * Tear down everything a run left holding itself alive, while the
 * model objects still exist. Pending event closures can hold the last
 * references to sockets, connections, queue pairs and CQs, so they go
 * first. Then the loops registered with releaseAtTeardown, then the
 * callbacks sockets and CQs hold for their owners. What those release
 * may schedule once more, so the queues are cleared again last.
 */
template <typename Bed>
void
teardown(Bed &bed, std::vector<std::function<void()>> &loops,
         sim::ParallelEngine *engine)
{
    if (engine != nullptr)
        engine->park();
    clearEvents(bed.sim(), engine);
    for (auto &release : loops)
        release();
    loops.clear();
    for (std::size_t i = 0; i < bed.numHosts(); ++i)
        bed.host(i).stack().dropCallbacks();
    if constexpr (requires { bed.provider(0); }) {
        for (std::size_t i = 0; i < bed.numHosts(); ++i)
            bed.provider(i).dropCallbacks();
    }
    clearEvents(bed.sim(), engine);
}

/**
 * One partition per host named "host<i>" (binding the host, its OS,
 * stack and NIC by name prefix), then hand the fabric's switches and
 * links to partitionFabric.
 */
template <typename Bed>
std::unique_ptr<sim::ParallelEngine>
makeEngine(Bed &bed, int threads)
{
    auto engine =
        std::make_unique<sim::ParallelEngine>(bed.sim(), threads);
    std::vector<sim::Partition *> parts;
    for (std::size_t i = 0; i < bed.numHosts(); ++i) {
        const std::string prefix = "host" + std::to_string(i);
        sim::Partition &p = engine->addPartition(prefix);
        engine->assignByPrefix(prefix, p);
        parts.push_back(&p);
    }
    net::partitionFabric(*engine, bed.fabric(), parts);
    return engine;
}

} // namespace

SocketsTestbed::SocketsTestbed(std::size_t n_hosts,
                               SocketsFabric fabric_kind,
                               std::uint64_t seed,
                               host::HostCostModel costs,
                               FabricTopology topology)
    : sim_(seed)
{
    const bool gige = fabric_kind == SocketsFabric::GigabitEthernet;
    net::LinkConfig link =
        gige ? net::gigabitEthernetLink() : net::myrinetLink(9000);
    fabric_ = makeFabric(sim_, link, topology, n_hosts);

    for (std::size_t i = 0; i < n_hosts; ++i) {
        auto node = static_cast<net::NodeId>(i);
        net::Link &spoke = fabric_->addNode(node);
        hosts_.push_back(std::make_unique<host::Host>(
            sim_, "host" + std::to_string(i), costs));
        nics_.push_back(std::make_unique<nic::EthNic>(
            sim_, "host" + std::to_string(i) + ".nic",
            hosts_[i]->stack(), spoke, node,
            gige ? nic::pro1000Params() : nic::gmIpParams()));
        hosts_[i]->stack().addAddress(v4Of(i));
    }
    // Full-mesh neighbor entries.
    for (std::size_t i = 0; i < n_hosts; ++i) {
        for (std::size_t j = 0; j < n_hosts; ++j) {
            if (i != j) {
                hosts_[i]->stack().routes().add(
                    v4Of(j), static_cast<net::NodeId>(j));
            }
        }
    }
}

SocketsTestbed::~SocketsTestbed()
{
    teardown(*this, loops_, engine_.get());
}

void
SocketsTestbed::enableParallel(int threads)
{
    engine_ = makeEngine(*this, threads);
}

inet::SockAddr
SocketsTestbed::addr(std::size_t i, std::uint16_t port) const
{
    return inet::SockAddr{v4Of(i), port};
}

inet::TcpConfig
SocketsTestbed::tcpConfig() const
{
    return hosts_.at(0)->stack().defaultTcpConfig();
}

QpipTestbed::QpipTestbed(std::size_t n_hosts, std::uint32_t mtu,
                         std::uint64_t seed,
                         nic::QpipNicParams nic_params,
                         host::HostCostModel costs, IpFamily family,
                         FabricTopology topology)
    : QpipTestbed(n_hosts, mtu, seed,
                  std::vector<nic::QpipNicParams>(n_hosts, nic_params),
                  costs, family, topology)
{
}

QpipTestbed::QpipTestbed(std::size_t n_hosts, std::uint32_t mtu,
                         std::uint64_t seed,
                         std::vector<nic::QpipNicParams> nic_params,
                         host::HostCostModel costs, IpFamily family,
                         FabricTopology topology)
    : sim_(seed), family_(family)
{
    if (nic_params.size() != n_hosts)
        sim::panic("QpipTestbed: nic_params size != n_hosts");
    const auto addr_of = [family](std::size_t i) {
        return family == IpFamily::V6 ? v6Of(i) : v4Of(i);
    };
    fabric_ = makeFabric(sim_, net::myrinetLink(mtu), topology,
                         n_hosts);
    for (std::size_t i = 0; i < n_hosts; ++i) {
        auto node = static_cast<net::NodeId>(i);
        net::Link &spoke = fabric_->addNode(node);
        hosts_.push_back(std::make_unique<host::Host>(
            sim_, "host" + std::to_string(i), costs));
        nics_.push_back(std::make_unique<nic::QpipNic>(
            sim_, "host" + std::to_string(i) + ".qnic", spoke, node,
            nic_params[i]));
        nics_[i]->setAddress(addr_of(i));
        providers_.push_back(std::make_unique<verbs::Provider>(
            *hosts_[i], *nics_[i]));
    }
    for (std::size_t i = 0; i < n_hosts; ++i) {
        for (std::size_t j = 0; j < n_hosts; ++j) {
            if (i != j) {
                nics_[i]->routes().add(addr_of(j),
                                       static_cast<net::NodeId>(j));
            }
        }
    }
}

QpipTestbed::~QpipTestbed()
{
    teardown(*this, loops_, engine_.get());
}

void
QpipTestbed::enableParallel(int threads)
{
    engine_ = makeEngine(*this, threads);
}

inet::SockAddr
QpipTestbed::addr(std::size_t i, std::uint16_t port) const
{
    return inet::SockAddr{
        family_ == IpFamily::V6 ? v6Of(i) : v4Of(i), port};
}

} // namespace qpip::apps
