/**
 * @file
 * fanin: the QPIP scale-out path. The server parks N reliable (RC) QPs
 * and one reliable-datagram (RUD) QP on one shared receive queue; the
 * client drives N connected RC QPs plus N RUD peers, sending 8 B
 * messages round-robin over all 2N endpoints in a seeded order with a
 * window of 64 outstanding sends. RC endpoints thrash the server's
 * 1024-entry QP-context cache; RUD keeps one context and per-peer
 * state in host memory.
 *
 * Each message carries its endpoint index and per-endpoint sequence
 * number; the server checks every message arrives exactly once, in
 * order per RC QP and per RUD peer, on the QP (or from the peer) it
 * was sent over.
 */

#include <cstring>
#include <map>
#include <stdexcept>

#include "apps/testbed.hh"
#include "apps/verbs_util.hh"
#include "trace.hh"
#include "workload.hh"

namespace perfbench {

using namespace qpip;

namespace {

constexpr std::size_t window = 64;
constexpr std::size_t srqDepth = 256;
constexpr std::size_t msgBytes = 8;
constexpr std::uint16_t rcPort = 700;
constexpr std::uint16_t rudPort = 800;
constexpr std::uint16_t peerPortBase = 2000;
constexpr std::uint64_t noQp = ~std::uint64_t(0);

void
put32(std::uint8_t *p, std::uint32_t v)
{
    std::memcpy(p, &v, sizeof v);
}

std::uint32_t
get32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    std::memcpy(&v, p, sizeof v);
    return v;
}

std::vector<nic::QpipNicParams>
nicParams(std::size_t endpoints)
{
    // The client host stands in for 2N independent senders, so its
    // NIC gets an uncontended cache; the server runs the default.
    nic::QpipNicParams client;
    client.qpCacheCapacity = endpoints + 16;
    return {client, nic::QpipNicParams{}};
}

class Fanin final : public Workload
{
  public:
    explicit Fanin(const Options &opts)
        : perKind_(opts.smoke ? 64 : 4096),
          messages_(opts.smoke ? 512 : 16384), seed_(opts.seed)
    {
        {
            Span s("apps.build");
            bed_ = std::make_unique<apps::QpipTestbed>(
                2, apps::qpipNativeMtu, seed_, nicParams(2 * perKind_));
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
        const std::size_t endpoints = 2 * perKind_;
        r.attempted = messages_;

        // Seeded visiting order; message m goes to endpoint
        // order[m % endpoints] with sequence number m / endpoints.
        std::vector<std::uint32_t> order(endpoints);
        for (std::size_t e = 0; e < endpoints; ++e)
            order[e] = static_cast<std::uint32_t>(e);
        InputRng rng(seed_);
        for (std::size_t i = endpoints - 1; i > 0; --i)
            std::swap(order[i], order[rng.below(i + 1)]);
        std::vector<std::uint32_t> posOf(endpoints);
        for (std::size_t i = 0; i < endpoints; ++i)
            posOf[order[i]] = static_cast<std::uint32_t>(i);

        std::vector<sim::Tick> postTick(messages_, 0);
        std::vector<std::uint8_t> delivered(messages_, 0);
        std::vector<std::uint8_t> sendFailed(messages_, 0);
        std::vector<std::uint16_t> slotOf(messages_, 0);
        std::vector<std::uint32_t> nextSeq(endpoints, 0);
        // Which server QP each RC endpoint arrives on (learned from
        // its first message) and the reverse map.
        std::vector<std::uint64_t> rcQpOf(perKind_, noQp);
        std::map<nic::QpNum, std::uint32_t> endpointOfQp;
        std::vector<std::uint16_t> freeSlots;
        for (std::size_t i = 0; i < window; ++i)
            freeSlots.push_back(static_cast<std::uint16_t>(window - 1 - i));
        r.latencies.reserve(messages_);

        std::uint64_t sent = 0;
        std::uint64_t finished = 0; // received + refused
        sim::Tick lastRecv = 0;
        const sim::Tick t0 = sim.now();

        auto badDelivery = [&](std::uint64_t m, const std::string &what) {
            r.error(what);
            if (m < messages_)
                sendFailed[m] = 1;
        };

        apps::waitLoop(*scq_, [&](verbs::Completion c) {
            Span cb("cb");
            if (c.isSend)
                return;
            ++finished;
            lastRecv = sim.now();
            const std::uint8_t *p =
                srqBuf_.data() + (c.wrId % srqDepth) * msgBytes;
            const std::uint32_t e = get32(p);
            const std::uint32_t seq = get32(p + 4);
            tally_.post([&] {
                return srq_->postRecv(srqPosted_, *srqMr_,
                                      (srqPosted_ % srqDepth) * msgBytes,
                                      msgBytes);
            });
            ++srqPosted_;
            if (c.status != verbs::WcStatus::Success) {
                ++tally_.errorCompletions;
                r.error("server receive completion failed");
                return;
            }
            if (c.byteLen != msgBytes || e >= endpoints) {
                r.error("malformed message");
                return;
            }
            const std::uint64_t m =
                std::uint64_t(seq) * endpoints + posOf[e];
            if (seq != nextSeq[e] || m >= messages_ || delivered[m]) {
                badDelivery(m, "endpoint " + std::to_string(e) +
                                   " expected seq " +
                                   std::to_string(nextSeq[e]) + " got " +
                                   std::to_string(seq));
                return;
            }
            ++nextSeq[e];
            if (e < perKind_) {
                if (rcQpOf[e] == noQp && !endpointOfQp.count(c.qp)) {
                    rcQpOf[e] = c.qp;
                    endpointOfQp[c.qp] = e;
                }
                if (rcQpOf[e] != c.qp) {
                    badDelivery(m, "RC message on the wrong QP");
                    return;
                }
            } else if (c.qp != serverRud_->num() ||
                       c.from.port != peerPortBase + (e - perKind_)) {
                badDelivery(m, "RUD message from the wrong peer");
                return;
            }
            delivered[m] = 1;
            r.latencies.push_back(c.completedAt - postTick[m]);
        });

        auto sendNext = [&] {
            while (sent < messages_ && !freeSlots.empty()) {
                const std::uint64_t m = sent++;
                const std::uint32_t e = order[m % endpoints];
                const std::uint16_t slot = freeSlots.back();
                std::uint8_t *p = sendBuf_.data() + slot * msgBytes;
                put32(p, e);
                put32(p + 4, static_cast<std::uint32_t>(m / endpoints));
                postTick[m] = sim.now();
                const bool ok = tally_.post([&] {
                    return e < perKind_
                               ? clientQps_[e]->postSend(
                                     m, *sendMr_, slot * msgBytes, msgBytes)
                               : clientQps_[e]->postSend(
                                     m, *sendMr_, slot * msgBytes, msgBytes,
                                     bed_->addr(1, rudPort));
                });
                if (!ok) {
                    sendFailed[m] = 1;
                    ++finished;
                    r.error("send refused");
                    continue;
                }
                freeSlots.pop_back();
                slotOf[m] = slot;
                return;
            }
        };
        apps::waitLoop(*ccq_, [&](verbs::Completion c) {
            Span cb("cb");
            if (!c.isSend)
                return;
            if (c.wrId < messages_) {
                freeSlots.push_back(slotOf[c.wrId]);
                if (c.status != verbs::WcStatus::Success) {
                    ++tally_.errorCompletions;
                    sendFailed[c.wrId] = 1;
                    r.error("send completion failed");
                }
            }
            sendNext();
        });
        for (std::size_t i = 0; i < window; ++i)
            sendNext();

        {
            Span s("sim.run");
            sim.runUntilCondition([&] { return finished >= messages_; },
                                  sim.now() + 3600 * sim::oneSec);
        }

        for (std::uint64_t m = 0; m < messages_; ++m) {
            if (delivered[m] && !sendFailed[m]) {
                ++r.ops;
            } else if (!delivered[m] && !sendFailed[m]) {
                r.error("message " + std::to_string(m) +
                        " never delivered");
            }
        }
        r.failed = r.attempted - r.ops;
        r.payloadBytes = r.ops * msgBytes;
        r.simTicks = lastRecv - t0;
    }

    void
    collect(RepResult &r) override
    {
        probe_.finish(r);
        tally_.addTo(r.counts);
    }

  private:
    void
    connect()
    {
        auto &client = bed_->provider(0);
        auto &server = bed_->provider(1);
        const std::size_t endpoints = 2 * perKind_;

        scq_ = server.createCq(1 << 16);
        ccq_ = client.createCq(1 << 16);
        srq_ = server.createSrq(1 << 16);
        srqBuf_.assign(srqDepth * msgBytes, 0);
        sendBuf_.assign(window * msgBytes, 0);
        srqMr_ = server.registerMemory(srqBuf_);
        sendMr_ = client.registerMemory(sendBuf_);
        for (; srqPosted_ < srqDepth; ++srqPosted_) {
            srq_->postRecv(srqPosted_, *srqMr_, srqPosted_ * msgBytes,
                           msgBytes);
        }

        verbs::QpAttrs serverAttrs;
        serverAttrs.srq = srq_;
        acceptor_ = std::make_unique<verbs::Acceptor>(server, rcPort,
                                                      scq_, scq_);
        serverRc_.reserve(perKind_);
        for (std::size_t i = 0; i < perKind_; ++i) {
            acceptor_->acceptOne(
                [this](std::shared_ptr<verbs::QueuePair> q) {
                    serverRc_.push_back(std::move(q));
                },
                serverAttrs);
        }
        serverRud_ = server.createQp(nic::QpType::ReliableDatagram, scq_,
                                     scq_, serverAttrs);
        serverRud_->bind(rudPort);

        std::size_t connected = 0;
        clientQps_.reserve(endpoints);
        for (std::size_t e = 0; e < endpoints; ++e) {
            const bool rc = e < perKind_;
            auto qp = client.createQp(
                rc ? nic::QpType::ReliableTcp
                   : nic::QpType::ReliableDatagram,
                ccq_, ccq_, verbs::QpAttrs{window, 0, nullptr, 0});
            if (rc) {
                qp->connect(bed_->addr(1, rcPort),
                            [&connected](bool ok) { connected += ok; });
            } else {
                qp->bind(static_cast<std::uint16_t>(peerPortBase + e -
                                                    perKind_));
            }
            clientQps_.push_back(std::move(qp));
        }
        auto &sim = bed_->sim();
        Span s("sim.setup_run");
        const bool ok = sim.runUntilCondition(
            [&] {
                return connected == perKind_ &&
                       serverRc_.size() == perKind_;
            },
            sim.now() + 600 * sim::oneSec);
        if (!ok)
            throw std::runtime_error("fanin: connection set-up stalled");
        // Drain the QP-create/bind management work still queued on the
        // client firmware, so the measured phase sees steady state.
        sim.runFor(sim::oneSec);
    }

    std::size_t perKind_;
    std::uint64_t messages_;
    std::uint64_t seed_;

    // Declared first: destroyed after every verbs object below.
    std::unique_ptr<apps::QpipTestbed> bed_;
    std::shared_ptr<verbs::CompletionQueue> scq_, ccq_;
    std::shared_ptr<verbs::SharedReceiveQueue> srq_;
    std::vector<std::uint8_t> srqBuf_, sendBuf_;
    std::shared_ptr<verbs::MemoryRegion> srqMr_, sendMr_;
    std::unique_ptr<verbs::Acceptor> acceptor_;
    std::vector<std::shared_ptr<verbs::QueuePair>> serverRc_;
    std::shared_ptr<verbs::QueuePair> serverRud_;
    /** Endpoint e: RC QP for e < N, RUD peer QP otherwise. */
    std::vector<std::shared_ptr<verbs::QueuePair>> clientQps_;

    std::uint64_t srqPosted_ = 0;
    VerbsTally tally_;
    Probe probe_;
};

} // namespace

std::unique_ptr<Workload>
makeFanin(const Options &opts)
{
    return std::make_unique<Fanin>(opts);
}

} // namespace perfbench
