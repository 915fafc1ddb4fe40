#include "apps/pingpong.hh"

#include "apps/verbs_util.hh"
#include "sim/logging.hh"

namespace qpip::apps {

using host::TcpSocket;
using host::UdpSocket;
using sim::Tick;

namespace {

constexpr std::uint16_t serverPort = 7; // echo

/**
 * Shared measurement state for one run: the client's exchange is its
 * one flow, done with its last round trip.
 */
struct PingState
{
    std::size_t iterations;
    std::size_t warmup;
    std::size_t msgBytes;
    FlowRun run;
    std::size_t done = 0;
    Tick t0 = 0;
    sim::SampleStat rtt;

    /**
     * A round trip ended at @p now.
     * @return true while more remain.
     */
    bool
    sample(Tick now)
    {
        if (done >= warmup)
            rtt.sample(sim::ticksToUs(now - t0));
        if (++done < iterations + warmup)
            return true;
        run.done(0, now);
        return false;
    }

    /** Run the exchange to its stop tick and report it. */
    PingPongResult
    result() const
    {
        PingPongResult r;
        r.completed = run.run();
        r.rttUs = rtt.mean();
        r.iterations = rtt.count();
        return r;
    }
};

/**
 * Host 0's side of a QPIP ping-pong over @p qp: each round posts a
 * receive, stamps its start, sends to @p server (none for a reliable
 * QP) and spin-polls until the reply lands.
 * @return the round loop; calling it starts the next round.
 */
std::shared_ptr<std::function<void()>>
qpipRounds(QpipTestbed &bed, const std::shared_ptr<PingState> &st,
           const std::shared_ptr<verbs::CompletionQueue> &cq,
           const std::shared_ptr<verbs::QueuePair> &qp,
           const std::shared_ptr<verbs::MemoryRegion> &mr,
           const inet::SockAddr &server)
{
    verbs::Provider &prov = bed.provider(0);
    host::HostOS &os = bed.host(0).os();
    auto iterate = std::make_shared<std::function<void()>>();
    auto await_reply = std::make_shared<std::function<void()>>();
    *await_reply = [st, await_reply, iterate, &prov, cq, &os] {
        spinPoll(prov, *cq,
                 [st, await_reply, iterate, &os](verbs::Completion c) {
                     if (c.isSend) {
                         (*await_reply)();
                         return;
                     }
                     if (st->sample(os.curTick()))
                         (*iterate)();
                 });
    };
    *iterate = [st, await_reply, qp, mr, server, &os] {
        qp->postRecv(1, *mr, 0, st->msgBytes);
        st->t0 = os.curTick();
        qp->postSend(2, *mr, 0, st->msgBytes, server);
        (*await_reply)();
    };
    bed.releaseAtTeardown(await_reply);
    bed.releaseAtTeardown(iterate);
    return iterate;
}

/**
 * Echo every @p msg_bytes message that arrives on the echo port of
 * host @p i's stack back to its sender.
 */
void
tcpEcho(SocketsTestbed &bed, std::size_t i, const inet::TcpConfig &cfg,
        std::size_t msg_bytes)
{
    auto echo = std::make_shared<
        std::function<void(std::shared_ptr<TcpSocket>)>>();
    *echo = [echo, msg_bytes](std::shared_ptr<TcpSocket> sock) {
        sock->recvExact(msg_bytes, [echo, msg_bytes,
                                    sock](std::vector<std::uint8_t> d) {
            if (d.size() < msg_bytes)
                return; // EOF
            sock->sendAll(std::move(d), [echo, sock] { (*echo)(sock); });
        });
    };
    bed.releaseAtTeardown(echo);
    bed.host(i).stack().tcpListen(
        serverPort, cfg,
        [echo](std::shared_ptr<TcpSocket> sock) { (*echo)(sock); });
}

} // namespace

// ---------------------------------------------------------------------
// Sockets / TCP
// ---------------------------------------------------------------------

PingPongResult
runSocketTcpPingPong(SocketsTestbed &bed, std::size_t iterations,
                     std::size_t msg_bytes, std::size_t warmup)
{
    auto st = std::make_shared<PingState>(iterations, warmup, msg_bytes,
                                          FlowRun(bed, 1));

    auto cfg = bed.tcpConfig();
    cfg.noDelay = true;

    auto &client = bed.host(0).stack();
    tcpEcho(bed, 1, cfg, msg_bytes);

    // Client: timed request/response loop.
    host::HostOS &os = bed.host(0).os();
    auto iterate = std::make_shared<
        std::function<void(std::shared_ptr<TcpSocket>)>>();
    *iterate = [st, iterate, &os](std::shared_ptr<TcpSocket> sock) {
        st->t0 = os.curTick();
        std::vector<std::uint8_t> msg(st->msgBytes, 0x5a);
        sock->sendAll(std::move(msg), [] {});
        sock->recvExact(st->msgBytes,
                        [st, iterate, &os,
                         sock](std::vector<std::uint8_t> d) {
                            if (d.size() < st->msgBytes)
                                return;
                            if (st->sample(os.curTick()))
                                (*iterate)(sock);
                        });
    };
    bed.releaseAtTeardown(iterate);

    // Kick the loop from the connect callback.
    auto sock = std::make_shared<std::shared_ptr<TcpSocket>>();
    *sock = client.tcpConnect(bed.addr(0, 30001),
                              bed.addr(1, serverPort), cfg,
                              [iterate, sock](bool ok) {
                                  if (ok)
                                      (*iterate)(*sock);
                              });
    return st->result();
}

// ---------------------------------------------------------------------
// Sockets / UDP
// ---------------------------------------------------------------------

PingPongResult
runSocketUdpPingPong(SocketsTestbed &bed, std::size_t iterations,
                     std::size_t msg_bytes, std::size_t warmup)
{
    auto st = std::make_shared<PingState>(iterations, warmup, msg_bytes,
                                          FlowRun(bed, 1));

    auto srv = bed.host(1).stack().udpBind(bed.addr(1, serverPort));
    auto cli = bed.host(0).stack().udpBind(bed.addr(0, 30001));

    auto echo = std::make_shared<std::function<void()>>();
    *echo = [srv, echo] {
        srv->recvFrom([srv, echo](UdpSocket::Datagram d) {
            srv->sendTo(std::move(d.data), d.from, nullptr);
            (*echo)();
        });
    };
    bed.releaseAtTeardown(echo);
    (*echo)();

    host::HostOS &os = bed.host(0).os();
    const auto server_addr = bed.addr(1, serverPort);
    auto iterate = std::make_shared<std::function<void()>>();
    *iterate = [st, iterate, cli, server_addr, &os] {
        st->t0 = os.curTick();
        cli->sendTo(std::vector<std::uint8_t>(st->msgBytes, 0xa5),
                    server_addr, nullptr);
        cli->recvFrom([st, iterate, &os](UdpSocket::Datagram) {
            if (st->sample(os.curTick()))
                (*iterate)();
        });
    };
    bed.releaseAtTeardown(iterate);
    (*iterate)();

    return st->result();
}

// ---------------------------------------------------------------------
// QPIP / reliable (TCP) QPs
// ---------------------------------------------------------------------

PingPongResult
runQpipTcpPingPong(QpipTestbed &bed, std::size_t iterations,
                   std::size_t msg_bytes, std::size_t warmup)
{
    auto st = std::make_shared<PingState>(iterations, warmup, msg_bytes,
                                          FlowRun(bed, 1));

    auto &prov_s = bed.provider(1);
    auto &prov_c = bed.provider(0);

    // --- server ------------------------------------------------------
    auto cq_s = prov_s.createCq();
    auto buf_s =
        std::make_shared<std::vector<std::uint8_t>>(msg_bytes, 0);
    auto mr_s = prov_s.registerMemory(*buf_s);
    auto acceptor = std::make_shared<verbs::Acceptor>(
        prov_s, serverPort, cq_s, cq_s);

    auto server_loop = std::make_shared<
        std::function<void(std::shared_ptr<verbs::QueuePair>)>>();
    *server_loop = [st, server_loop, &prov_s, cq_s, mr_s,
                    buf_s](std::shared_ptr<verbs::QueuePair> qp) {
        spinPoll(prov_s, *cq_s,
                 [st, server_loop, qp, mr_s](verbs::Completion c) {
                     if (!c.isSend) {
                         // Echo and re-arm the receive after the echo
                         // is on the wire.
                         qp->postSend(2, *mr_s, 0, st->msgBytes);
                     } else {
                         qp->postRecv(1, *mr_s, 0, st->msgBytes);
                     }
                     (*server_loop)(qp);
                 });
    };
    bed.releaseAtTeardown(server_loop);
    acceptor->acceptOne(
        [st, server_loop, mr_s](std::shared_ptr<verbs::QueuePair> qp) {
            qp->postRecv(1, *mr_s, 0, st->msgBytes);
            (*server_loop)(qp);
        });

    // --- client ------------------------------------------------------
    auto cq_c = prov_c.createCq();
    auto buf_c =
        std::make_shared<std::vector<std::uint8_t>>(msg_bytes, 0x5a);
    auto mr_c = prov_c.registerMemory(*buf_c);
    auto qp_c = prov_c.createQp(nic::QpType::ReliableTcp, cq_c, cq_c);
    const auto iterate = qpipRounds(bed, st, cq_c, qp_c, mr_c, {});
    qp_c->connect(bed.addr(1, serverPort), [iterate](bool ok) {
        if (ok)
            (*iterate)();
    });

    return st->result();
}

// ---------------------------------------------------------------------
// QPIP / unreliable (UDP) QPs
// ---------------------------------------------------------------------

PingPongResult
runQpipUdpPingPong(QpipTestbed &bed, std::size_t iterations,
                   std::size_t msg_bytes, std::size_t warmup)
{
    auto st = std::make_shared<PingState>(iterations, warmup, msg_bytes,
                                          FlowRun(bed, 1));

    auto &prov_s = bed.provider(1);
    auto &prov_c = bed.provider(0);

    // --- server ------------------------------------------------------
    auto cq_s = prov_s.createCq();
    auto buf_s =
        std::make_shared<std::vector<std::uint8_t>>(msg_bytes, 0);
    auto mr_s = prov_s.registerMemory(*buf_s);
    auto qp_s = prov_s.createQp(nic::QpType::UnreliableUdp, cq_s, cq_s);
    qp_s->bind(serverPort);
    qp_s->postRecv(1, *mr_s, 0, msg_bytes);

    auto server_loop = std::make_shared<std::function<void()>>();
    *server_loop = [st, server_loop, &prov_s, cq_s, qp_s, mr_s] {
        spinPoll(prov_s, *cq_s,
                 [st, server_loop, qp_s, mr_s](verbs::Completion c) {
                     if (!c.isSend) {
                         qp_s->postSend(2, *mr_s, 0, st->msgBytes,
                                        c.from);
                         qp_s->postRecv(1, *mr_s, 0, st->msgBytes);
                     }
                     (*server_loop)();
                 });
    };
    bed.releaseAtTeardown(server_loop);
    (*server_loop)();

    // --- client ------------------------------------------------------
    auto cq_c = prov_c.createCq();
    auto buf_c =
        std::make_shared<std::vector<std::uint8_t>>(msg_bytes, 0xa5);
    auto mr_c = prov_c.registerMemory(*buf_c);
    auto qp_c = prov_c.createQp(nic::QpType::UnreliableUdp, cq_c, cq_c);
    qp_c->bind(30001);
    (*qpipRounds(bed, st, cq_c, qp_c, mr_c, bed.addr(1, serverPort)))();

    return st->result();
}

namespace {

// Table 1's measurement size, shared by both rows.
constexpr std::size_t overheadIterations = 256;
constexpr std::size_t overheadWarmup = 8;

} // namespace

LoopbackOverhead
hostLoopbackOverhead(SocketsTestbed &bed)
{
    auto &stack = bed.host(0).stack();
    auto cfg = bed.tcpConfig();
    cfg.noDelay = true;
    tcpEcho(bed, 0, cfg, 1);
    // The rounds start from the connect callback. The measurement
    // ends as the last request goes out; the last echo is still in
    // flight then and finds the loop finished.
    struct Rounds
    {
        std::size_t done = 0;
        Tick busy0 = 0;
    };
    auto st = std::make_shared<Rounds>();
    host::Host &h = bed.host(0);
    const FlowRun run(bed, 1);
    auto cli = std::make_shared<std::shared_ptr<TcpSocket>>();
    auto loop = std::make_shared<std::function<void()>>();
    *loop = [st, run, loop, cli, &h] {
        if (st->done == overheadWarmup)
            st->busy0 = h.cpu().busyTotal();
        if (st->done >= overheadWarmup + overheadIterations)
            return;
        if (++st->done == overheadWarmup + overheadIterations)
            run.done(0, h.os().curTick());
        (*cli)->sendAll({0x5a}, [] {});
        (*cli)->recvExact(1,
                          [loop](std::vector<std::uint8_t>) { (*loop)(); });
    };
    bed.releaseAtTeardown(loop);
    *cli = stack.tcpConnect(bed.addr(0, 31000), bed.addr(0, serverPort),
                            cfg, [loop](bool ok) {
                                if (ok)
                                    (*loop)();
                            });
    run.run();
    LoopbackOverhead r;
    r.busy = h.cpu().busyTotal() - st->busy0;
    // Each iteration is 2 messages (request + echo), each crossing
    // one send path and one receive path on this host.
    r.usPerMsg = sim::ticksToUs(r.busy) /
                 (2.0 * static_cast<double>(overheadIterations));
    return r;
}

double
qpipPostPollOverheadUs(QpipTestbed &bed)
{
    auto &prov0 = bed.provider(0);
    auto &prov1 = bed.provider(1);
    auto cq0 = prov0.createCq();
    auto cq1 = prov1.createCq();
    auto b0 = std::make_shared<std::vector<std::uint8_t>>(64);
    auto b1 = std::make_shared<std::vector<std::uint8_t>>(64);
    auto mr0 = prov0.registerMemory(*b0);
    auto mr1 = prov1.registerMemory(*b1);
    verbs::Acceptor acc(prov1, serverPort, cq1, cq1);
    // Set-up: both ends' callbacks are the phase's two flows.
    const FlowRun setup(bed, 2);
    std::shared_ptr<verbs::QueuePair> qp1;
    acc.acceptOne([&](std::shared_ptr<verbs::QueuePair> q) {
        qp1 = q;
        setup.done(0, bed.host(1).os().curTick());
    });
    auto qp0 = prov0.createQp(nic::QpType::ReliableTcp, cq0, cq0);
    qp0->connect(bed.addr(1, serverPort), [&](bool ok) {
        if (ok)
            setup.done(1, bed.host(0).os().curTick());
    });
    setup.run();

    // Echo server: repost + reply on every message, polled every 10 us
    // until the measurement ends. It leaves a receive posted into b1,
    // so it keeps both buffers until teardown.
    qp1->postRecv(1, *mr1, 0, 1);
    auto stopped = std::make_shared<bool>(false);
    auto echo = std::make_shared<std::function<bool()>>(
        [stopped, cq1, qp1, mr1, b0, b1] {
            if (*stopped)
                return false;
            verbs::Completion c;
            while (cq1->poll(c)) {
                if (!c.isSend) {
                    qp1->postSend(2, *mr1, 0, 1);
                    qp1->postRecv(1, *mr1, 0, 1);
                }
            }
            return true;
        });
    bed.releaseAtTeardown(echo);
    periodicReaper(prov1, 10 * sim::oneUs, [echo] { return (*echo)(); });

    auto &cpu = bed.host(0).cpu();
    Tick post_busy = 0, poll_busy = 0;
    for (std::size_t i = 0; i < overheadIterations; ++i) {
        qp0->postRecv(1, *mr0, 0, 1);
        Tick b = cpu.busyTotal();
        qp0->postSend(2, *mr0, 0, 1);
        post_busy += cpu.busyTotal() - b;
        // Run until the echo lands, then time the successful polls;
        // the empty polls a spinning caller would issue are not
        // counted, matching "directly timing the methods". The calls
        // are timed from outside the simulation on purpose, so each
        // iteration stops where the echo landed rather than at a
        // FlowRun's stop tick.
        bed.sim().runUntilCondition(
            [&] { return cq0->depth() >= 2; },
            bed.sim().now() + sim::oneSec);
        verbs::Completion c;
        while (cq0->depth() > 0) {
            b = cpu.busyTotal();
            if (cq0->poll(c))
                poll_busy += cpu.busyTotal() - b;
        }
    }
    *stopped = true;
    // Per message: one PostSend + one successful Poll (two polls, the
    // send's and the echo's, land per iteration).
    return sim::ticksToUs(post_busy + poll_busy / 2) /
           static_cast<double>(overheadIterations);
}

} // namespace qpip::apps
