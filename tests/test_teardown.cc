/**
 * @file
 * Teardown anywhere: the application may drop every verbs object it
 * holds after any event of a run, in verbs order (QPs, the Acceptor,
 * CQs, the SRQ, MRs) or in reverse, and the NICs must survive it.
 * Each sweep runs its scenario once to count its events, then, for
 * every k from 0 to that count, runs it afresh, stops after exactly k
 * events (an unpartitioned run checks its predicate after every
 * event), drops everything and runs on for a simulated second. The
 * stat registry must then be back to its size before the scenario: a
 * QP that outlived its last handle would still have its TCP stats
 * registered. Completions bound for destroyed CQs, closures holding
 * destroyed objects and leaked rings are left to the sanitizer build,
 * where AddressSanitizer and LeakSanitizer are the oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "apps/testbed.hh"

using namespace qpip;
using namespace qpip::apps;

namespace {

/**
 * What the application holds. Its callbacks capture only a reference
 * to it and do nothing once it has dropped its objects, so no
 * callback keeps or brings back a dropped object.
 */
struct App
{
    std::vector<std::vector<std::uint8_t>> bufs;
    std::vector<std::shared_ptr<verbs::QueuePair>> qps;
    std::shared_ptr<verbs::Acceptor> acceptor;
    std::vector<std::shared_ptr<verbs::CompletionQueue>> cqs;
    std::shared_ptr<verbs::SharedReceiveQueue> srq;
    std::vector<std::shared_ptr<verbs::MemoryRegion>> mrs;
    /** Successful completions seen so far. */
    std::size_t completions = 0;
    bool dropped = false;

    /**
     * Take every completion from @p cq through Wait(), counting the
     * successful ones and passing each to @p then.
     */
    void
    count(verbs::CompletionQueue &cq,
          std::function<void(const verbs::Completion &)> then = {})
    {
        cq.wait([this, &cq, then](verbs::Completion c) {
            if (dropped)
                return;
            if (c.status == verbs::WcStatus::Success)
                ++completions;
            if (then)
                then(c);
            count(cq, then);
        });
    }

    /** Drop every verbs object, in verbs order or in reverse. */
    void
    drop(bool reverse)
    {
        dropped = true;
        std::vector<std::function<void()>> steps = {
            [this] { qps.clear(); },
            [this] { acceptor.reset(); },
            [this] { cqs.clear(); },
            [this] { srq.reset(); },
            [this] { mrs.clear(); },
        };
        if (reverse)
            std::reverse(steps.begin(), steps.end());
        for (const auto &step : steps)
            step();
    }
};

/**
 * A scenario starts its work on @p bed and is done at @p target
 * completions, having moved the server NIC's counter @p shows (what
 * the scenario is there to exercise).
 */
struct Scenario
{
    std::function<void(QpipTestbed &bed, App &app)> start;
    std::size_t target;
    sim::Counter nic::QpipNic::*shows;
};

constexpr std::uint16_t port = 700;

/**
 * RC with RDMA framing: connect, then two sends, an RDMA Write and an
 * RDMA Read from the connect callback. Six completions.
 */
void
startRc(QpipTestbed &bed, App &app)
{
    auto &client = bed.provider(0);
    auto &server = bed.provider(1);
    app.bufs.assign(2, std::vector<std::uint8_t>(4096, 7));
    app.cqs = {client.createCq(), server.createCq()};
    app.mrs = {client.registerMemory(app.bufs[0]),
               server.registerMemory(app.bufs[1], nic::accessRemoteRw)};
    verbs::QpAttrs attrs;
    attrs.rdmaWindowBytes = 1 << 14;

    app.acceptor = std::make_shared<verbs::Acceptor>(server, port,
                                                     app.cqs[1], app.cqs[1]);
    app.acceptor->acceptOne(
        [&app](std::shared_ptr<verbs::QueuePair> qp) {
            if (app.dropped)
                return;
            qp->postRecv(1, *app.mrs[1], 0, 512);
            qp->postRecv(2, *app.mrs[1], 512, 512);
            app.qps.push_back(std::move(qp));
        },
        attrs);

    auto qp = client.createQp(nic::QpType::ReliableTcp, app.cqs[0],
                              app.cqs[0], attrs);
    qp->connect(bed.addr(1, port), [&app, qp = qp.get()](bool ok) {
        if (app.dropped || !ok)
            return;
        const nic::MrKey rkey = app.mrs[1]->key();
        qp->postSend(1, *app.mrs[0], 0, 64);
        qp->postSend(2, *app.mrs[0], 64, 64);
        qp->postWrite(3, *app.mrs[0], 128, 64, rkey, 1024);
        qp->postRead(4, *app.mrs[0], 256, 64, rkey, 2048);
    });
    app.qps.push_back(std::move(qp));
    app.count(*app.cqs[0]);
    app.count(*app.cqs[1]);
}

/**
 * SRQ fan-in: three client QPs each send one message to QPs parked on
 * one Acceptor and attached to one SRQ. The SRQ starts with two
 * receives and each receive completion reposts one, so the third
 * message waits in an RNR hold. Six completions.
 */
void
startSrqFanIn(QpipTestbed &bed, App &app)
{
    constexpr std::size_t clients = 3;
    auto &client = bed.provider(0);
    auto &server = bed.provider(1);
    app.bufs.assign(2, std::vector<std::uint8_t>(4096, 9));
    app.cqs = {client.createCq(), server.createCq()};
    app.mrs = {client.registerMemory(app.bufs[0]),
               server.registerMemory(app.bufs[1])};
    app.srq = server.createSrq();
    app.srq->postRecv(1, *app.mrs[1], 0, 256);
    app.srq->postRecv(2, *app.mrs[1], 256, 256);

    verbs::QpAttrs attrs;
    attrs.srq = app.srq;
    app.acceptor = std::make_shared<verbs::Acceptor>(server, port,
                                                     app.cqs[1], app.cqs[1]);
    for (std::size_t i = 0; i < clients; ++i) {
        app.acceptor->acceptOne(
            [&app](std::shared_ptr<verbs::QueuePair> qp) {
                if (!app.dropped)
                    app.qps.push_back(std::move(qp));
            },
            attrs);
    }
    for (std::size_t i = 0; i < clients; ++i) {
        auto qp = client.createQp(nic::QpType::ReliableTcp, app.cqs[0],
                                  app.cqs[0]);
        qp->connect(bed.addr(1, port), [&app, i, qp = qp.get()](bool ok) {
            if (!app.dropped && ok)
                qp->postSend(i, *app.mrs[0], i * 64, 64);
        });
        app.qps.push_back(std::move(qp));
    }
    app.count(*app.cqs[0]);
    app.count(*app.cqs[1], [&app](const verbs::Completion &c) {
        app.srq->postRecv(c.wrId + 2, *app.mrs[1], 512, 256);
    });
}

/**
 * RUD first contact with an RNR hold: the client sends two datagrams
 * to a peer it has never reached; the server has one receive posted,
 * so the second is held until the first's completion reposts. Four
 * completions.
 */
void
startRud(QpipTestbed &bed, App &app)
{
    auto &client = bed.provider(0);
    auto &server = bed.provider(1);
    app.bufs.assign(2, std::vector<std::uint8_t>(4096, 3));
    app.cqs = {client.createCq(), server.createCq()};
    app.mrs = {client.registerMemory(app.bufs[0]),
               server.registerMemory(app.bufs[1])};

    auto sqp = server.createQp(nic::QpType::ReliableDatagram, app.cqs[1],
                               app.cqs[1]);
    sqp->bind(port);
    sqp->postRecv(1, *app.mrs[1], 0, 256);
    auto cqp = client.createQp(nic::QpType::ReliableDatagram, app.cqs[0],
                               app.cqs[0]);
    cqp->bind(port + 1);
    cqp->postSend(1, *app.mrs[0], 0, 128, bed.addr(1, port));
    cqp->postSend(2, *app.mrs[0], 128, 128, bed.addr(1, port));
    app.count(*app.cqs[0]);
    app.count(*app.cqs[1], [&app, qp = sqp.get()](const verbs::Completion &) {
        qp->postRecv(2, *app.mrs[1], 256, 256);
    });
    app.qps = {std::move(sqp), std::move(cqp)};
}

/** Events the scenario runs until it is done. */
std::uint64_t
eventsToDone(const Scenario &s)
{
    QpipTestbed bed(2);
    App app;
    s.start(bed, app);
    const std::uint64_t before = bed.sim().engine().executed();
    EXPECT_TRUE(bed.sim().runUntilCondition(
        [&] { return app.completions == s.target; },
        bed.sim().now() + sim::oneSec));
    EXPECT_EQ(app.completions, s.target);
    EXPECT_GT((bed.nicOf(1).*s.shows).value(), 0u);
    return bed.sim().engine().executed() - before;
}

/** Drop everything after each of the scenario's events in turn. */
void
sweep(const Scenario &s, bool reverse)
{
    const std::uint64_t events = eventsToDone(s);
    ASSERT_GT(events, 0u);
    for (std::uint64_t k = 0; k <= events; ++k) {
        QpipTestbed bed(2);
        App app;
        const std::size_t stats = bed.sim().stats().size();
        s.start(bed, app);
        auto &engine = bed.sim().engine();
        const std::uint64_t before = engine.executed();
        bed.sim().runUntilCondition(
            [&] { return engine.executed() - before >= k; });
        ASSERT_EQ(engine.executed() - before, k);
        app.drop(reverse);
        bed.sim().runFor(sim::oneSec);
        ASSERT_EQ(bed.sim().stats().size(), stats)
            << "dropped after event " << k << " of " << events;
    }
}

const Scenario rc{startRc, 6, &nic::QpipNic::rdmaReads};
const Scenario srqFanIn{startSrqFanIn, 6, &nic::QpipNic::srqRnrHolds};
const Scenario rud{startRud, 4, &nic::QpipNic::rudRnrHolds};

} // namespace

TEST(TeardownSweep, RcInVerbsOrder) { sweep(rc, false); }
TEST(TeardownSweep, RcInReverseOrder) { sweep(rc, true); }
TEST(TeardownSweep, SrqFanInInVerbsOrder) { sweep(srqFanIn, false); }
TEST(TeardownSweep, SrqFanInInReverseOrder) { sweep(srqFanIn, true); }
TEST(TeardownSweep, RudInVerbsOrder) { sweep(rud, false); }
TEST(TeardownSweep, RudInReverseOrder) { sweep(rud, true); }
