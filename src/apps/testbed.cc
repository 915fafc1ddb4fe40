#include "apps/testbed.hh"

#include <algorithm>

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

} // namespace

Testbed::Testbed(std::uint64_t seed, IpFamily family,
                 net::LinkConfig link, FabricTopology topology,
                 std::size_t n_hosts)
    : sim_(seed), family_(family),
      fabric_(makeFabric(sim_, link, topology, n_hosts))
{
}

net::Link &
Testbed::addHost(const host::HostCostModel &costs)
{
    const std::size_t i = hosts_.size();
    net::Link &spoke = fabric_->addNode(static_cast<net::NodeId>(i));
    hosts_.push_back(std::make_unique<host::Host>(
        sim_, "host" + std::to_string(i), costs));
    hostParts_.push_back(&sim_.engine().partition(0));
    return spoke;
}

inet::InetAddr
Testbed::addrOf(std::size_t i) const
{
    return family_ == IpFamily::V6 ? v6Of(i) : v4Of(i);
}

inet::SockAddr
Testbed::addr(std::size_t i, std::uint16_t port) const
{
    return inet::SockAddr{addrOf(i), port};
}

void
Testbed::meshRoutes(
    const std::function<inet::NeighborTable &(std::size_t)> &routes)
{
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
        for (std::size_t j = 0; j < hosts_.size(); ++j) {
            if (i != j)
                routes(i).add(addrOf(j), static_cast<net::NodeId>(j));
        }
    }
}

/**
 * partitionFabric makes the partitions, one per switch, and says
 * which one each host joins; the host, its OS, stack and NIC are
 * bound there by their "host<i>" name prefix.
 */
void
Testbed::enableParallel(int threads)
{
    sim::ParallelEngine &engine = sim_.engine();
    engine.setThreads(threads);
    hostParts_ = net::partitionFabric(engine, *fabric_);
    for (std::size_t i = 0; i < hosts_.size(); ++i)
        engine.assignByPrefix("host" + std::to_string(i), partitionOf(i));
}

/**
 * Pending event closures can hold the last references to sockets,
 * connections, queue pairs and CQs, so they go first. Then the loops
 * registered with releaseAtTeardown, then the callbacks sockets hold
 * for their owners. What those release may schedule once more, so
 * the queues are cleared again last.
 */
void
Testbed::teardown()
{
    sim::ParallelEngine &engine = sim_.engine();
    engine.park();
    engine.clearAll();
    for (auto &release : loops_)
        release();
    loops_.clear();
    for (auto &h : hosts_)
        h->stack().dropCallbacks();
    engine.clearAll();
}

SocketsTestbed::SocketsTestbed(std::size_t n_hosts,
                               SocketsFabric fabric_kind,
                               std::uint64_t seed,
                               host::HostCostModel costs,
                               FabricTopology topology)
    : Testbed(seed, IpFamily::V4,
              fabric_kind == SocketsFabric::GigabitEthernet
                  ? net::gigabitEthernetLink()
                  : net::myrinetLink(9000),
              topology, n_hosts)
{
    const bool gige = fabric_kind == SocketsFabric::GigabitEthernet;
    for (std::size_t i = 0; i < n_hosts; ++i) {
        net::Link &spoke = addHost(costs);
        nics_.push_back(std::make_unique<nic::EthNic>(
            sim(), "host" + std::to_string(i) + ".nic",
            host(i).stack(), spoke, static_cast<net::NodeId>(i),
            gige ? nic::pro1000Params() : nic::gmIpParams()));
        host(i).stack().addAddress(addrOf(i));
    }
    meshRoutes([this](std::size_t i) -> inet::NeighborTable & {
        return host(i).stack().routes();
    });
}

SocketsTestbed::~SocketsTestbed()
{
    teardown();
}

inet::TcpConfig
SocketsTestbed::tcpConfig() const
{
    return host(0).stack().defaultTcpConfig();
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
    : Testbed(seed, family, net::myrinetLink(mtu), topology, n_hosts)
{
    if (nic_params.size() != n_hosts)
        sim::panic("QpipTestbed: nic_params size != n_hosts");
    for (std::size_t i = 0; i < n_hosts; ++i) {
        net::Link &spoke = addHost(costs);
        nics_.push_back(std::make_unique<nic::QpipNic>(
            sim(), "host" + std::to_string(i) + ".qnic", spoke,
            static_cast<net::NodeId>(i), nic_params[i]));
        nics_[i]->setAddress(addrOf(i));
        providers_.push_back(
            std::make_unique<verbs::Provider>(host(i), *nics_[i]));
    }
    meshRoutes([this](std::size_t i) -> inet::NeighborTable & {
        return nics_[i]->routes();
    });
}

/**
 * Armed CQ waits hold callbacks for their owners too; they go after
 * the shared teardown, and what dropping them schedules goes with one
 * more clear.
 */
QpipTestbed::~QpipTestbed()
{
    teardown();
    for (auto &p : providers_)
        p->dropCallbacks();
    sim().engine().clearAll();
}

void
HostWindow::open(host::Host &h)
{
    t0 = h.os().curTick();
    busy0 = h.cpu().busyTotal();
}

void
HostWindow::close(host::Host &h)
{
    t1 = h.os().curTick();
    busy1 = h.cpu().busyTotal();
}

FlowRun::FlowRun(Testbed &bed, std::size_t flows)
    : FlowRun(bed.sim(), bed.fabric(), flows)
{
}

FlowRun::FlowRun(sim::Simulation &sim, const net::Fabric &fabric,
                 std::size_t flows)
    : sim_(&sim), grace_(net::horizonReach(fabric)),
      doneAt_(std::make_shared<std::vector<sim::Tick>>(flows,
                                                       sim::maxTick))
{
    if (flows == 0)
        sim::panic("FlowRun: a run needs at least one flow");
}

/**
 * Where runUntilCondition returns depends on the partitioning; the
 * stop tick does not. The epoch that ran the last done event ran
 * nothing below its earliest pending event N, and no partition past
 * N plus the fabric's horizon reach (net::horizonReach): the check
 * below asserts that no partition stands past the stop tick.
 */
bool
FlowRun::run() const
{
    const std::vector<sim::Tick> &at = *doneAt_;
    const sim::Tick deadline = sim_->now() + runBudget;
    // A done slot stays done, so each check resumes at the first flow
    // the last one found running.
    std::size_t running = 0;
    const bool ok = sim_->runUntilCondition(
        [&at, &running] {
            while (running < at.size() && at[running] != sim::maxTick)
                ++running;
            return running == at.size();
        },
        deadline);
    const sim::Tick stop =
        ok ? *std::max_element(at.begin(), at.end()) + grace_ : deadline;
    sim::ParallelEngine &engine = sim_->engine();
    for (std::size_t i = 0; i < engine.numPartitions(); ++i) {
        const sim::Tick clock = engine.partition(i).eventQueue().now();
        if (clock > stop)
            sim::panic("FlowRun: partition %zu stands at %llu, past "
                       "the stop tick %llu",
                       i, static_cast<unsigned long long>(clock),
                       static_cast<unsigned long long>(stop));
    }
    sim_->runUntil(stop);
    return ok;
}

double
mbPerSec(std::uint64_t bytes, sim::Tick ticks)
{
    if (ticks == 0)
        return 0.0;
    return static_cast<double>(bytes) / (1024.0 * 1024.0) /
           sim::ticksToSec(ticks);
}

} // namespace qpip::apps
