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
    auto iterate = std::make_shared<
        std::function<void(std::shared_ptr<TcpSocket>)>>();
    *iterate = [st, iterate, &sim](std::shared_ptr<TcpSocket> sock) {
        if (st->finished)
            return;
        st->t0 = sim.now();
        std::vector<std::uint8_t> msg(st->msgBytes, 0x5a);
        sock->sendAll(std::move(msg), [] {});
        sock->recvExact(st->msgBytes,
                        [st, iterate, &sim,
                         sock](std::vector<std::uint8_t> d) {
                            if (d.size() < st->msgBytes)
                                return;
                            st->sample(sim.now());
                            if (!st->finished)
                                (*iterate)(sock);
                        });
    };
    bed.releaseAtTeardown(iterate);

    auto sock = client.tcpConnect(
        bed.addr(0, 30001), bed.addr(1, serverPort), cfg, nullptr);
    // Kick the loop once connected.
    sim.runUntilCondition([&] { return sock->connected(); },
                          sim.now() + runDeadline);
    (*iterate)(sock);
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
    const auto server_addr = bed.addr(1, serverPort);
    auto iterate = std::make_shared<std::function<void()>>();
    *iterate = [st, iterate, cli, server_addr, &sim] {
        if (st->finished)
            return;
        st->t0 = sim.now();
        cli->sendTo(std::vector<std::uint8_t>(st->msgBytes, 0xa5),
                    server_addr, nullptr);
        cli->recvFrom([st, iterate, &sim](UdpSocket::Datagram) {
            st->sample(sim.now());
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
    *await_reply = [st, await_reply, iterate, &prov_c, cq_c, qp_c,
                    mr_c, &sim] {
        spinPoll(prov_c, *cq_c,
                 [st, await_reply, iterate, &sim,
                  mr_c](verbs::Completion c) {
                     if (c.isSend) {
                         (*await_reply)();
                         return;
                     }
                     st->sample(sim.now());
                     if (!st->finished)
                         (*iterate)();
                 });
    };
    *iterate = [st, await_reply, qp_c, mr_c, &sim] {
        qp_c->postRecv(1, *mr_c, 0, st->msgBytes);
        st->t0 = sim.now();
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
    *await_reply = [st, await_reply, iterate, &prov_c, cq_c, &sim] {
        spinPoll(prov_c, *cq_c,
                 [st, await_reply, iterate, &sim](verbs::Completion c) {
                     if (c.isSend) {
                         (*await_reply)();
                         return;
                     }
                     st->sample(sim.now());
                     if (!st->finished)
                         (*iterate)();
                 });
    };
    *iterate = [st, await_reply, qp_c, mr_c, server_addr, &sim] {
        qp_c->postRecv(1, *mr_c, 0, st->msgBytes);
        st->t0 = sim.now();
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

} // namespace qpip::apps
