#include "apps/pingpong.hh"

#include "apps/verbs_util.hh"
#include "sim/logging.hh"

namespace qpip::apps {

using host::TcpSocket;
using host::UdpSocket;
using sim::Tick;

namespace {

constexpr Tick runDeadline = 120 * sim::oneSec;
constexpr std::uint16_t serverPort = 7; // echo

/** Shared measurement state for one run. */
struct PingState
{
    std::size_t iterations = 0;
    std::size_t warmup = 0;
    std::size_t msgBytes = 1;
    std::size_t done = 0;
    Tick t0 = 0;
    sim::SampleStat rtt;
    bool finished = false;

    void
    sample(Tick now)
    {
        if (done >= warmup)
            rtt.sample(sim::ticksToUs(now - t0));
        ++done;
        if (done >= iterations + warmup)
            finished = true;
    }
};

PingPongResult
collect(const PingState &st)
{
    PingPongResult r;
    r.rttUs = st.rtt.mean();
    r.iterations = st.rtt.count();
    r.completed = st.finished;
    return r;
}

} // namespace

// ---------------------------------------------------------------------
// Sockets / TCP
// ---------------------------------------------------------------------

PingPongResult
runSocketTcpPingPong(SocketsTestbed &bed, std::size_t iterations,
                     std::size_t msg_bytes, std::size_t warmup)
{
    auto st = std::make_shared<PingState>();
    st->iterations = iterations;
    st->warmup = warmup;
    st->msgBytes = msg_bytes;

    auto cfg = bed.tcpConfig();
    cfg.noDelay = true;

    auto &server = bed.host(1).stack();
    auto &client = bed.host(0).stack();

    // Server: echo every message back.
    auto echo = std::make_shared<
        std::function<void(std::shared_ptr<TcpSocket>)>>();
    *echo = [st, echo](std::shared_ptr<TcpSocket> sock) {
        sock->recvExact(st->msgBytes,
                        [st, echo, sock](std::vector<std::uint8_t> d) {
                            if (d.size() < st->msgBytes)
                                return; // EOF
                            sock->sendAll(std::move(d), [st, echo, sock] {
                                (*echo)(sock);
                            });
                        });
    };
    bed.releaseAtTeardown(echo);
    server.tcpListen(serverPort, cfg,
                     [echo](std::shared_ptr<TcpSocket> sock) {
                         (*echo)(sock);
                     });

    // Client: timed request/response loop.
    auto &sim = bed.sim();
    host::HostOS &os = bed.host(0).os();
    auto iterate = std::make_shared<
        std::function<void(std::shared_ptr<TcpSocket>)>>();
    *iterate = [st, iterate, &os](std::shared_ptr<TcpSocket> sock) {
        if (st->finished)
            return;
        st->t0 = os.curTick();
        std::vector<std::uint8_t> msg(st->msgBytes, 0x5a);
        sock->sendAll(std::move(msg), [] {});
        sock->recvExact(st->msgBytes,
                        [st, iterate, &os,
                         sock](std::vector<std::uint8_t> d) {
                            if (d.size() < st->msgBytes)
                                return;
                            st->sample(os.curTick());
                            if (!st->finished)
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
    sim.runUntilCondition([&] { return st->finished; },
                          sim.now() + runDeadline);
    return collect(*st);
}

// ---------------------------------------------------------------------
// Sockets / UDP
// ---------------------------------------------------------------------

PingPongResult
runSocketUdpPingPong(SocketsTestbed &bed, std::size_t iterations,
                     std::size_t msg_bytes, std::size_t warmup)
{
    auto st = std::make_shared<PingState>();
    st->iterations = iterations;
    st->warmup = warmup;
    st->msgBytes = msg_bytes;

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

    auto &sim = bed.sim();
    host::HostOS &os = bed.host(0).os();
    const auto server_addr = bed.addr(1, serverPort);
    auto iterate = std::make_shared<std::function<void()>>();
    *iterate = [st, iterate, cli, server_addr, &os] {
        if (st->finished)
            return;
        st->t0 = os.curTick();
        cli->sendTo(std::vector<std::uint8_t>(st->msgBytes, 0xa5),
                    server_addr, nullptr);
        cli->recvFrom([st, iterate, &os](UdpSocket::Datagram) {
            st->sample(os.curTick());
            if (!st->finished)
                (*iterate)();
        });
    };
    bed.releaseAtTeardown(iterate);
    (*iterate)();

    sim.runUntilCondition([&] { return st->finished; },
                          sim.now() + runDeadline);
    return collect(*st);
}

// ---------------------------------------------------------------------
// QPIP / reliable (TCP) QPs
// ---------------------------------------------------------------------

PingPongResult
runQpipTcpPingPong(QpipTestbed &bed, std::size_t iterations,
                   std::size_t msg_bytes, std::size_t warmup)
{
    auto st = std::make_shared<PingState>();
    st->iterations = iterations;
    st->warmup = warmup;
    st->msgBytes = msg_bytes;

    auto &sim = bed.sim();
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

    auto iterate = std::make_shared<std::function<void()>>();
    auto await_reply = std::make_shared<std::function<void()>>();
    host::HostOS &os = bed.host(0).os();
    *await_reply = [st, await_reply, iterate, &prov_c, cq_c, qp_c,
                    mr_c, &os] {
        spinPoll(prov_c, *cq_c,
                 [st, await_reply, iterate, &os,
                  mr_c](verbs::Completion c) {
                     if (c.isSend) {
                         (*await_reply)();
                         return;
                     }
                     st->sample(os.curTick());
                     if (!st->finished)
                         (*iterate)();
                 });
    };
    *iterate = [st, await_reply, qp_c, mr_c, &os] {
        qp_c->postRecv(1, *mr_c, 0, st->msgBytes);
        st->t0 = os.curTick();
        qp_c->postSend(2, *mr_c, 0, st->msgBytes);
        (*await_reply)();
    };
    bed.releaseAtTeardown(await_reply);
    bed.releaseAtTeardown(iterate);

    qp_c->connect(bed.addr(1, serverPort), [iterate](bool ok) {
        if (ok)
            (*iterate)();
    });

    sim.runUntilCondition([&] { return st->finished; },
                          sim.now() + runDeadline);
    return collect(*st);
}

// ---------------------------------------------------------------------
// QPIP / unreliable (UDP) QPs
// ---------------------------------------------------------------------

PingPongResult
runQpipUdpPingPong(QpipTestbed &bed, std::size_t iterations,
                   std::size_t msg_bytes, std::size_t warmup)
{
    auto st = std::make_shared<PingState>();
    st->iterations = iterations;
    st->warmup = warmup;
    st->msgBytes = msg_bytes;

    auto &sim = bed.sim();
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

    const auto server_addr = bed.addr(1, serverPort);
    auto iterate = std::make_shared<std::function<void()>>();
    auto await_reply = std::make_shared<std::function<void()>>();
    host::HostOS &os = bed.host(0).os();
    *await_reply = [st, await_reply, iterate, &prov_c, cq_c, &os] {
        spinPoll(prov_c, *cq_c,
                 [st, await_reply, iterate, &os](verbs::Completion c) {
                     if (c.isSend) {
                         (*await_reply)();
                         return;
                     }
                     st->sample(os.curTick());
                     if (!st->finished)
                         (*iterate)();
                 });
    };
    *iterate = [st, await_reply, qp_c, mr_c, server_addr, &os] {
        qp_c->postRecv(1, *mr_c, 0, st->msgBytes);
        st->t0 = os.curTick();
        qp_c->postSend(2, *mr_c, 0, st->msgBytes, server_addr);
        (*await_reply)();
    };
    bed.releaseAtTeardown(await_reply);
    bed.releaseAtTeardown(iterate);
    (*iterate)();

    sim.runUntilCondition([&] { return st->finished; },
                          sim.now() + runDeadline);
    return collect(*st);
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

    auto echo =
        std::make_shared<std::function<void(std::shared_ptr<TcpSocket>)>>();
    *echo = [echo](std::shared_ptr<TcpSocket> s) {
        s->recvExact(1, [echo, s](std::vector<std::uint8_t> d) {
            if (d.empty())
                return;
            s->sendAll(std::move(d), [echo, s] { (*echo)(s); });
        });
    };
    bed.releaseAtTeardown(echo);
    stack.tcpListen(serverPort, cfg, [echo](std::shared_ptr<TcpSocket> s) {
        (*echo)(s);
    });
    auto cli = stack.tcpConnect(bed.addr(0, 31000), bed.addr(0, serverPort),
                                cfg, nullptr);
    bed.sim().runUntilCondition([&] { return cli->connected(); },
                                5 * sim::oneSec);

    // The measurement ends as the last request goes out; the last echo
    // is still in flight then and finds the loop finished.
    struct Rounds
    {
        std::size_t done = 0;
        Tick busy0 = 0;
    };
    auto st = std::make_shared<Rounds>();
    auto &cpu = bed.host(0).cpu();
    auto loop = std::make_shared<std::function<void()>>();
    *loop = [st, loop, cli, &cpu] {
        if (st->done == overheadWarmup)
            st->busy0 = cpu.busyTotal();
        if (st->done >= overheadWarmup + overheadIterations)
            return;
        ++st->done;
        cli->sendAll({0x5a}, [] {});
        cli->recvExact(1, [loop](std::vector<std::uint8_t>) { (*loop)(); });
    };
    bed.releaseAtTeardown(loop);
    (*loop)();
    bed.sim().runUntilCondition(
        [&] { return st->done >= overheadWarmup + overheadIterations; },
        60 * sim::oneSec);
    LoopbackOverhead r;
    r.busy = cpu.busyTotal() - st->busy0;
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
    std::shared_ptr<verbs::QueuePair> qp1;
    acc.acceptOne([&](std::shared_ptr<verbs::QueuePair> q) {
        qp1 = q;
    });
    auto qp0 = prov0.createQp(nic::QpType::ReliableTcp, cq0, cq0);
    bool connected = false;
    qp0->connect(bed.addr(1, serverPort), [&](bool ok) { connected = ok; });
    bed.sim().runUntilCondition([&] { return connected && qp1; },
                                10 * sim::oneSec);

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
        // counted, matching "directly timing the methods".
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
