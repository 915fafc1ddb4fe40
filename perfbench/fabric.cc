/**
 * @file
 * fabric: the host-resident baseline at scale. 128 sockets hosts on
 * the k=8 fat-tree over Gigabit Ethernet carry 1024 bulk TCP flows: 8
 * seeded distinct shifts of the all-to-all (one per pod distance, each
 * leaving the source edge switch), each flow 128 KB in 16 KB writes,
 * each starting at a seeded 0..10 us, under the parallel engine with
 * 2 worker threads. QPIP NICs are not involved. A flow's latency is its
 * completion time from its own start.
 *
 * The benchmark drives the flows itself through HostStack::tcpListen,
 * HostStack::tcpConnect and TcpSocket, so connection set-up is timed
 * apart from the transfer and each flow's completion tick is known.
 * Every flow carries a seeded byte pattern that its receiver checks.
 * Per-flow receive state is written only from the receiving host's
 * partition, and per-flow send state only from the sending host's.
 */

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "apps/testbed.hh"
#include "trace.hh"
#include "workload.hh"

namespace perfbench {

using namespace qpip;
using host::TcpSocket;

namespace {

constexpr std::uint16_t listenPortBase = 5001;
constexpr std::uint16_t sourcePortBase = 30000;
constexpr std::size_t writeBytes = 16 * 1024;
/** Pattern period: a prime, so flows do not line up with writes. */
constexpr std::size_t patternBytes = 65521;
constexpr int workerThreads = 2;
/** A k=8 fat-tree pod: 4 edge switches of 4 hosts. */
constexpr std::size_t podHosts = 16;
constexpr std::size_t edgeHosts = 4;
/** Flows start staggered by up to 10 us, as independent senders do. */
constexpr sim::Tick maxStartDelay = 10 * sim::oneUs;

class Fabric final : public Workload
{
  public:
    explicit Fabric(const Options &opts)
        : shifts_(opts.smoke ? 2 : 8), hosts_(shifts_ * podHosts),
          flowBytes_(opts.smoke ? 2 * writeBytes : 8 * writeBytes)
    {
        InputRng rng(opts.seed);
        pattern_.resize(patternBytes);
        for (auto &b : pattern_)
            b = static_cast<std::uint8_t>(rng.next());
        // Shift j moves j pods over plus a seeded 4..12 hosts, so every
        // seed covers each pod distance once and every flow leaves its
        // edge switch.
        for (std::size_t j = 0; j < shifts_; ++j) {
            const std::size_t shift =
                j * podHosts + edgeHosts +
                rng.below(podHosts - 2 * edgeHosts + 1);
            for (std::size_t i = 0; i < hosts_; ++i) {
                Flow f;
                f.src = i;
                f.dst = (i + shift) % hosts_;
                f.base = rng.below(patternBytes);
                f.startDelay = rng.below(maxStartDelay + 1);
                flows_.push_back(f);
            }
        }
        rx_.resize(flows_.size());
        tx_.resize(flows_.size());

        {
            Span s("apps.build");
            bed_ = std::make_unique<apps::SocketsTestbed>(
                hosts_, apps::SocketsFabric::GigabitEthernet, opts.seed,
                host::HostCostModel{}, apps::FabricTopology::FatTreeK8);
            bed_->enableParallel(workerThreads);
        }
        Span s("apps.connect");
        connect();
        probe_.sim = &bed_->sim();
        probe_.events = [this] { return bed_->engine()->executed(); };
        for (std::size_t i = 0; i < hosts_; ++i)
            probe_.appHosts.push_back(&bed_->host(i));
        probe_.start();
    }

    void
    run(RepResult &r) override
    {
        auto &sim = bed_->sim();
        const std::uint64_t writesPerFlow = flowBytes_ / writeBytes;
        r.threads = workerThreads;
        r.attempted = flows_.size() * writesPerFlow;
        const sim::Tick t0 = sim.now();
        for (std::size_t k = 0; k < flows_.size(); ++k) {
            bed_->host(flows_[k].src).os().scheduleIn(
                flows_[k].startDelay, [this, k] { pump(k); });
        }
        {
            Span s("sim.run");
            sim.runUntilCondition([this] { return allDone(); },
                                  sim.now() + 600 * sim::oneSec);
        }

        sim::Tick end = t0;
        for (std::size_t k = 0; k < flows_.size(); ++k) {
            const FlowRx &rx = rx_[k];
            if (!rx.done) {
                r.error("flow " + std::to_string(k) + " delivered " +
                        std::to_string(rx.received) + " of " +
                        std::to_string(flowBytes_) + " bytes");
                continue;
            }
            end = std::max(end, rx.doneAt);
            if (rx.bad) {
                r.error("flow " + std::to_string(k) +
                        " payload does not match its pattern");
                continue;
            }
            r.ops += writesPerFlow;
            r.latencies.push_back(rx.doneAt - t0 - flows_[k].startDelay);
        }
        r.failed = r.attempted - r.ops;
        r.payloadBytes = r.ops * writeBytes;
        r.simTicks = end - t0;
    }

    void
    collect(RepResult &r) override
    {
        probe_.finish(r);
    }

  private:
    struct Flow
    {
        std::size_t src = 0;
        std::size_t dst = 0;
        /** Offset of the flow's first byte in the pattern. */
        std::size_t base = 0;
        /** When the flow's first write is issued, after the run starts. */
        sim::Tick startDelay = 0;
    };

    /** Receive side; written only from the receiving host's partition. */
    struct FlowRx
    {
        std::shared_ptr<TcpSocket> sock;
        std::uint64_t received = 0;
        sim::Tick doneAt = 0;
        std::uint8_t accepted = 0;
        std::uint8_t done = 0;
        std::uint8_t bad = 0;
    };

    /** Send side; written only from the sending host's partition. */
    struct FlowTx
    {
        std::shared_ptr<TcpSocket> sock;
        std::uint64_t sent = 0;
    };

    void
    connect()
    {
        auto cfg = bed_->tcpConfig();
        cfg.noDelay = true;
        for (std::size_t k = 0; k < flows_.size(); ++k) {
            const auto port = static_cast<std::uint16_t>(listenPortBase + k);
            Span call("host.call");
            bed_->host(flows_[k].dst)
                .stack()
                .tcpListen(port, cfg,
                           [this, k](std::shared_ptr<TcpSocket> sock) {
                               Span cb("cb");
                               rx_[k].sock = sock;
                               rx_[k].accepted = 1;
                               drain(k);
                           });
        }
        for (std::size_t k = 0; k < flows_.size(); ++k) {
            Span call("host.call");
            tx_[k].sock = bed_->host(flows_[k].src)
                              .stack()
                              .tcpConnect(
                                  bed_->addr(flows_[k].src,
                                             static_cast<std::uint16_t>(
                                                 sourcePortBase + k)),
                                  bed_->addr(flows_[k].dst,
                                             static_cast<std::uint16_t>(
                                                 listenPortBase + k)),
                                  cfg, nullptr);
        }
        auto &sim = bed_->sim();
        Span s("sim.setup_run");
        const bool ok = sim.runUntilCondition(
            [this] {
                for (std::size_t k = 0; k < flows_.size(); ++k) {
                    if (!tx_[k].sock->connected() || !rx_[k].accepted)
                        return false;
                }
                return true;
            },
            sim.now() + 600 * sim::oneSec);
        if (!ok)
            throw std::runtime_error("fabric: connection set-up stalled");
    }

    /** Queue the flow's next write; runs in the sender's partition. */
    void
    pump(std::size_t k)
    {
        FlowTx &tx = tx_[k];
        if (tx.sent >= flowBytes_)
            return;
        std::vector<std::uint8_t> chunk(writeBytes);
        std::size_t pos = (flows_[k].base + tx.sent) % patternBytes;
        for (std::size_t off = 0; off < chunk.size();) {
            const std::size_t n =
                std::min(chunk.size() - off, patternBytes - pos);
            std::memcpy(chunk.data() + off, pattern_.data() + pos, n);
            off += n;
            pos = 0;
        }
        tx.sent += chunk.size();
        Span call("host.call");
        tx.sock->sendAll(std::move(chunk), [this, k] {
            Span cb("cb");
            pump(k);
        });
    }

    /** Read whatever arrived; runs in the receiver's partition. */
    void
    drain(std::size_t k)
    {
        FlowRx &rx = rx_[k];
        Span call("host.call");
        rx.sock->recv(262144, [this, k](std::vector<std::uint8_t> d) {
            Span cb("cb");
            FlowRx &rx = rx_[k];
            if (d.empty())
                return; // EOF
            if (rx.received + d.size() > flowBytes_ || !matches(k, d))
                rx.bad = 1;
            rx.received += d.size();
            if (rx.received >= flowBytes_) {
                rx.doneAt = bed_->host(flows_[k].dst).stack().now();
                rx.done = 1;
                return;
            }
            drain(k);
        });
    }

    /** Does @p d continue flow @p k's pattern where it left off? */
    bool
    matches(std::size_t k, const std::vector<std::uint8_t> &d) const
    {
        std::size_t pos = (flows_[k].base + rx_[k].received) % patternBytes;
        for (std::size_t off = 0; off < d.size();) {
            const std::size_t n = std::min(d.size() - off, patternBytes - pos);
            if (std::memcmp(d.data() + off, pattern_.data() + pos, n) != 0)
                return false;
            off += n;
            pos = 0;
        }
        return true;
    }

    bool
    allDone() const
    {
        return std::all_of(rx_.begin(), rx_.end(),
                           [](const FlowRx &rx) { return rx.done != 0; });
    }

    /** One shift per pod: 8 shifts on 128 hosts. */
    std::size_t shifts_;
    std::size_t hosts_;
    std::uint64_t flowBytes_;
    std::vector<std::uint8_t> pattern_;
    std::vector<Flow> flows_;

    // Declared before the sockets: destroyed after them.
    std::unique_ptr<apps::SocketsTestbed> bed_;
    std::vector<FlowRx> rx_;
    std::vector<FlowTx> tx_;
    Probe probe_;
};

} // namespace

std::unique_ptr<Workload>
makeFabric(const Options &opts)
{
    return std::make_unique<Fabric>(opts);
}

} // namespace perfbench
