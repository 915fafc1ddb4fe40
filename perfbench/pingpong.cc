/**
 * @file
 * pingpong: the latency-bound QPIP path of Figure 3. Two QPIP hosts,
 * one reliable QP, a 64 B echo with one exchange outstanding, both
 * ends spin-polling their completion queue. The server computes for a
 * seeded 0..1 us before each echo, so the RTT varies a little by seed.
 * The RTT runs from the send post to the reply's completion entry; the
 * client's poll loop would otherwise round it up to its own period.
 * Every exchange carries a fresh seeded payload and the client checks
 * the echo byte for byte.
 */

#include <cstring>
#include <stdexcept>

#include "apps/testbed.hh"
#include "apps/verbs_util.hh"
#include "trace.hh"
#include "workload.hh"

namespace perfbench {

using namespace qpip;

namespace {

constexpr std::uint16_t echoPort = 7;
constexpr std::size_t msgBytes = 64;
/** Server work per message before the echo: up to 1 us at 550 MHz. */
constexpr std::uint64_t maxServeCycles = 550;

class Pingpong final : public Workload
{
  public:
    explicit Pingpong(const Options &opts)
        : exchanges_(opts.smoke ? 50 : 10000), rng_(opts.seed)
    {
        {
            Span s("apps.build");
            bed_ = std::make_unique<apps::QpipTestbed>(
                2, apps::qpipNativeMtu, opts.seed);
        }
        Span s("apps.connect");
        connect();
        probe_.sim = &bed_->sim();
        probe_.events = [this] {
            return bed_->sim().eventQueue().executed();
        };
        probe_.appHosts = {&bed_->host(0), &bed_->host(1)};
        probe_.nics = {&bed_->nicOf(0), &bed_->nicOf(1)};
        probe_.server = &bed_->nicOf(1);
        probe_.start();
    }

    void
    run(RepResult &r) override
    {
        auto &sim = bed_->sim();
        auto &client = bed_->provider(0);
        r.attempted = exchanges_;
        r.latencies.reserve(exchanges_);
        std::uint8_t *tx = clientBuf_.data();
        const std::uint8_t *rx = clientBuf_.data() + msgBytes;
        const sim::Tick t0 = sim.now();
        std::uint64_t done = 0;
        sim::Tick sentAt = 0, lastReply = t0;

        std::function<void()> iterate;
        std::function<void()> awaitReply = [&] {
            apps::spinPoll(client, *clientCq_, [&](verbs::Completion c) {
                Span cb("cb");
                if (c.status != verbs::WcStatus::Success) {
                    ++tally_.errorCompletions;
                    r.error("client completion failed");
                }
                if (c.isSend) {
                    awaitReply();
                    return;
                }
                lastReply = sim.now();
                if (c.byteLen != msgBytes ||
                    std::memcmp(tx, rx, msgBytes) != 0) {
                    r.error("echo " + std::to_string(done) +
                            " does not match what was sent");
                } else if (c.status == verbs::WcStatus::Success) {
                    ++r.ops;
                    r.latencies.push_back(c.completedAt - sentAt);
                }
                if (++done < exchanges_)
                    iterate();
            });
        };
        iterate = [&] {
            for (std::size_t i = 0; i < msgBytes; ++i)
                tx[i] = static_cast<std::uint8_t>(rng_.next());
            bool ok = tally_.post([&] {
                return clientQp_->postRecv(1, *clientMr_, msgBytes,
                                           msgBytes);
            });
            sentAt = sim.now();
            ok = tally_.post([&] {
                return clientQp_->postSend(2, *clientMr_, 0, msgBytes);
            }) && ok;
            if (!ok) {
                r.error("post refused");
                ++done;
                return;
            }
            awaitReply();
        };
        iterate();

        {
            Span s("sim.run");
            sim.runUntilCondition([&] { return done >= exchanges_; },
                                  sim.now() + 600 * sim::oneSec);
        }
        r.failed = r.attempted - r.ops;
        r.payloadBytes = 2 * r.ops * msgBytes;
        r.simTicks = lastReply - t0;
    }

    void
    collect(RepResult &r) override
    {
        probe_.finish(r);
        tally_.addTo(r.counts);
    }

  private:
    /**
     * Server completion: after a receive, compute for a seeded time
     * and echo the message from the buffer it landed in; after the
     * echo has left, re-arm the receive.
     */
    void
    serve(const verbs::Completion &c)
    {
        Span cb("cb");
        if (c.status != verbs::WcStatus::Success)
            ++tally_.errorCompletions;
        if (c.isSend) {
            tally_.post([&] {
                return serverQp_->postRecv(1, *serverMr_, 0, msgBytes);
            });
            serverLoop_();
            return;
        }
        const std::size_t len = c.byteLen;
        bed_->host(1).cpu().run(rng_.below(maxServeCycles + 1),
                                [this, len] { echo(len); });
    }

    void
    echo(std::size_t len)
    {
        Span cb("cb");
        tally_.post([&] {
            return serverQp_->postSend(2, *serverMr_, 0, len);
        });
        serverLoop_();
    }

    void
    connect()
    {
        auto &client = bed_->provider(0);
        auto &server = bed_->provider(1);

        serverCq_ = server.createCq();
        serverBuf_.assign(msgBytes, 0);
        serverMr_ = server.registerMemory(serverBuf_);
        acceptor_ = std::make_unique<verbs::Acceptor>(server, echoPort,
                                                      serverCq_, serverCq_);
        serverLoop_ = [this] {
            apps::spinPoll(bed_->provider(1), *serverCq_,
                           [this](verbs::Completion c) { serve(c); });
        };
        acceptor_->acceptOne([this](std::shared_ptr<verbs::QueuePair> q) {
            serverQp_ = std::move(q);
            tally_.post([&] {
                return serverQp_->postRecv(1, *serverMr_, 0, msgBytes);
            });
            serverLoop_();
        });

        clientCq_ = client.createCq();
        clientBuf_.assign(2 * msgBytes, 0);
        clientMr_ = client.registerMemory(clientBuf_);
        clientQp_ =
            client.createQp(nic::QpType::ReliableTcp, clientCq_, clientCq_);
        bool connected = false;
        clientQp_->connect(bed_->addr(1, echoPort),
                           [&connected](bool ok) { connected = ok; });
        auto &sim = bed_->sim();
        Span s("sim.setup_run");
        if (!sim.runUntilCondition(
                [&] { return connected && serverQp_ != nullptr; },
                sim.now() + 60 * sim::oneSec))
            throw std::runtime_error("pingpong: connect stalled");
    }

    std::uint64_t exchanges_;
    InputRng rng_;

    // Declared first: destroyed after every verbs object below.
    std::unique_ptr<apps::QpipTestbed> bed_;
    std::shared_ptr<verbs::CompletionQueue> serverCq_, clientCq_;
    std::vector<std::uint8_t> serverBuf_, clientBuf_;
    std::shared_ptr<verbs::MemoryRegion> serverMr_, clientMr_;
    std::unique_ptr<verbs::Acceptor> acceptor_;
    std::shared_ptr<verbs::QueuePair> serverQp_, clientQp_;
    std::function<void()> serverLoop_;

    VerbsTally tally_;
    Probe probe_;
};

} // namespace

std::unique_ptr<Workload>
makePingpong(const Options &opts)
{
    return std::make_unique<Pingpong>(opts);
}

} // namespace perfbench
