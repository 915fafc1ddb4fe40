/**
 * @file
 * Host-model tests: CPU accounting, parked spinners, the sockets API
 * over a real testbed (connect/accept, stream integrity, EOF, UDP),
 * the loopback path, and connection refusal.
 */

#include <gtest/gtest.h>

#include "apps/testbed.hh"

using namespace qpip;
using namespace qpip::apps;
using host::TcpSocket;
using host::UdpSocket;

namespace {

std::vector<std::uint8_t>
pattern(std::size_t n, std::uint8_t seed = 1)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(seed * 7 + i);
    return v;
}

} // namespace

TEST(CpuModel, SerializesAndAccounts)
{
    sim::Simulation sim;
    host::CpuModel cpu(sim, "cpu", 1'000'000'000); // 1 GHz: 1 cyc = 1 ns
    std::vector<int> order;
    cpu.run(1000, [&] { order.push_back(1); });
    cpu.run(2000, [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    // 3000 cycles at 1 GHz = 3 us busy.
    EXPECT_EQ(cpu.busyTotal(), 3 * sim::oneUs);
    EXPECT_EQ(sim.now(), 3 * sim::oneUs);
}

TEST(CpuModel, RepeatedChargeMatchesSeparateCharges)
{
    // A parked spinner's owed polls are charged in bulk; at 550 MHz a
    // cycle is not a whole number of ticks, and the bulk charge still
    // adds up to the same busy time as separate charges.
    sim::Simulation sim;
    host::CpuModel one(sim, "one", 550'000'000);
    host::CpuModel parked(sim, "parked", 550'000'000);
    host::SpinWaiter waiter;
    one.run(333, [] {});
    parked.run(333, [] {});
    parked.charge(60);
    parked.park(waiter, 60, [] {});
    // The poll that parked, then the 1001 owed polls below stop.
    for (int i = 0; i < 1002; ++i)
        one.charge(60);
    const sim::Tick period = parked.clock().cyclesToTicks(60);
    sim.runUntil(parked.busyUntil() + 1000 * period + 1);
    EXPECT_EQ(parked.busyTotal(), one.busyTotal());
    EXPECT_EQ(parked.busyUntil(), one.busyUntil());
    sim.eventQueue().clear();
}

// --- parked spinners ------------------------------------------------

namespace {

/** A 1 GHz CPU whose empty poll costs 10 cycles: one poll, 10 ns. */
struct ParkRig
{
    static constexpr sim::Cycles pollCycles = 10;
    static constexpr sim::Tick period = 10 * sim::oneNs;

    sim::Simulation sim;
    /** Keys the test's own events; built before the CPU it drives. */
    sim::EventSource harness = sim.addSource();
    host::CpuModel cpu{sim, "cpu", 1'000'000'000};

    /** Run @p fn at @p when as the test's own event. */
    template <typename F>
    void
    at(sim::Tick when, F &&fn)
    {
        sim.eventQueue().schedule(harness.key(when), std::forward<F>(fn));
    }

    /** The loop's first poll, made in the caller's event, then park. */
    template <typename F>
    void
    spin(host::SpinWaiter &w, F &&poll)
    {
        cpu.charge(pollCycles);
        cpu.park(w, pollCycles, std::forward<F>(poll));
    }
};

} // namespace

TEST(CpuPark, TwoSpinnersShareOneRoundRobinGrid)
{
    // A and B start at 0 on one CPU. The poll-per-event loop polls A
    // at 10, 30, 50, ... ns and B at 20, 40, 60, ... ns, each charging
    // one period from where the CPU frees up.
    ParkRig r;
    host::SpinWaiter a, b;
    std::vector<sim::Tick> seen;
    r.at(0, [&] {
        r.spin(a, [&] { seen.push_back(1); });
        r.spin(b, [&] {
            seen.push_back(r.sim.now());
            seen.push_back(r.cpu.busyUntil());
            r.cpu.charge(ParkRig::pollCycles);
        });
    });
    // A push at 45 ns wakes B's next poll, at 60 ns.
    r.at(45 * sim::oneNs, [&] { b.wake(); });
    r.sim.runUntil(100 * sim::oneNs);
    // At 60 ns the polls at 0, 0, 10, 20, 30, 40 and 50 ns have made
    // the CPU busy to 70 ns.
    EXPECT_EQ(seen, (std::vector<sim::Tick>{60 * sim::oneNs,
                                            70 * sim::oneNs}));
    EXPECT_FALSE(b.parked());
    EXPECT_TRUE(a.parked());
    // A alone polls on: at 70 and 90 ns, so the CPU is busy to 100 ns,
    // ten polls in all.
    EXPECT_EQ(r.cpu.busyUntil(), 100 * sim::oneNs);
    EXPECT_EQ(r.cpu.busyTotal(), 100 * sim::oneNs);
    r.sim.eventQueue().clear();
}

TEST(CpuPark, ChargeSettlesTheOwedPollsFirst)
{
    ParkRig r;
    host::SpinWaiter w;
    std::vector<sim::Tick> seen;
    r.at(0, [&] { r.spin(w, [] {}); });
    r.at(35'500, [&] {
        // Polls at 10, 20 and 30 ns ran: busy to 40 ns. The charge
        // queues behind them, and the poll owed at 40 ns behind it.
        seen.push_back(r.cpu.busyUntil());
        r.cpu.charge(5);
        seen.push_back(r.cpu.busyUntil());
    });
    r.sim.runUntil(60 * sim::oneNs);
    // The 40 ns poll runs [45, 55) ns, the 55 ns one [55, 65) ns.
    EXPECT_EQ(seen, (std::vector<sim::Tick>{40 * sim::oneNs,
                                            45 * sim::oneNs}));
    EXPECT_EQ(r.cpu.busyUntil(), 65 * sim::oneNs);
    EXPECT_EQ(r.cpu.busyTotal(), 65 * sim::oneNs);
    r.sim.eventQueue().clear();
}

TEST(CpuPark, RunBoundSettlesPollsBelowIt)
{
    ParkRig r;
    host::SpinWaiter w;
    r.at(0, [&] { r.spin(w, [] {}); });
    // A run that stops on a poll tick leaves that poll for the next
    // run; one tick later it has run.
    r.sim.runUntil(30 * sim::oneNs);
    EXPECT_EQ(r.cpu.busyUntil(), 30 * sim::oneNs);
    r.sim.runUntil(30 * sim::oneNs + 1);
    EXPECT_EQ(r.cpu.busyUntil(), 40 * sim::oneNs);
    EXPECT_EQ(r.sim.now(), 30 * sim::oneNs + 1);
    // A condition run that hits its deadline stops after the last
    // poll before it, as the poll-per-event loop would.
    EXPECT_FALSE(r.sim.runUntilCondition([] { return false; },
                                         75 * sim::oneNs));
    EXPECT_EQ(r.sim.now(), 70 * sim::oneNs);
    EXPECT_EQ(r.cpu.busyUntil(), 80 * sim::oneNs);
    r.sim.eventQueue().clear();
}

TEST(CpuPark, CountersAreExactAtEveryConditionCheck)
{
    ParkRig r;
    host::SpinWaiter w;
    r.at(0, [&] { r.spin(w, [] {}); });
    for (const sim::Tick t : {12'345u, 27'000u, 31'000u, 50'001u})
        r.at(t, [] {});
    std::vector<sim::Tick> busy;
    r.sim.runUntilCondition([&] {
        busy.push_back(r.cpu.busyUntil());
        return r.sim.now() > 50 * sim::oneNs;
    });
    // Before the run, then after each event: every poll below the
    // event has run, and none after it.
    EXPECT_EQ(busy, (std::vector<sim::Tick>{0, 10'000, 20'000, 30'000,
                                            40'000, 60'000}));
    r.sim.eventQueue().clear();
}

TEST(CpuPark, ParkedSpinnerIsNotAnEvent)
{
    ParkRig r;
    host::SpinWaiter w;
    bool polled = false;
    r.spin(w, [&] { polled = true; });
    EXPECT_TRUE(w.parked());
    EXPECT_TRUE(r.sim.eventQueue().empty());
    EXPECT_EQ(r.sim.eventQueue().nextEventTick(), sim::maxTick);
    // Nothing to run, so a drain returns at once.
    EXPECT_EQ(r.sim.run(), 0u);
    EXPECT_EQ(r.sim.now(), 0u);
    // clear() drops the spinner: a push then wakes nothing.
    r.sim.eventQueue().clear();
    EXPECT_FALSE(w.parked());
    w.wake();
    r.sim.runUntil(sim::oneUs);
    EXPECT_FALSE(polled);
    EXPECT_EQ(r.cpu.busyUntil(), ParkRig::period);
}

TEST(CpuModel, UtilizationMath)
{
    EXPECT_DOUBLE_EQ(host::CpuModel::utilization(50, 100), 0.5);
    EXPECT_DOUBLE_EQ(host::CpuModel::utilization(0, 100), 0.0);
    EXPECT_DOUBLE_EQ(host::CpuModel::utilization(10, 0), 0.0);
}

TEST(HostSockets, ConnectAcceptTransfer)
{
    SocketsTestbed bed(2, SocketsFabric::GigabitEthernet);
    auto cfg = bed.tcpConfig();
    auto data = pattern(50000);

    std::vector<std::uint8_t> got;
    std::shared_ptr<TcpSocket> server_sock;
    bed.host(1).stack().tcpListen(
        9000, cfg, [&](std::shared_ptr<TcpSocket> s) {
            server_sock = s;
            s->recvExact(data.size(),
                         [&](std::vector<std::uint8_t> d) {
                             got = std::move(d);
                         });
        });

    auto cli = bed.host(0).stack().tcpConnect(
        bed.addr(0, 31000), bed.addr(1, 9000), cfg, nullptr);
    bed.sim().runUntilCondition([&] { return cli->connected(); },
                                5 * sim::oneSec);
    ASSERT_TRUE(cli->connected());

    bool sent = false;
    cli->sendAll(data, [&] { sent = true; });
    bed.sim().runUntilCondition(
        [&] { return sent && got.size() == data.size(); },
        bed.sim().now() + 30 * sim::oneSec);
    EXPECT_EQ(got, data);
}

TEST(HostSockets, EofAfterClose)
{
    SocketsTestbed bed(2, SocketsFabric::GigabitEthernet);
    auto cfg = bed.tcpConfig();
    std::shared_ptr<TcpSocket> server_sock;
    std::vector<std::uint8_t> got;
    bool eof_seen = false;
    bed.host(1).stack().tcpListen(
        9000, cfg, [&](std::shared_ptr<TcpSocket> s) {
            server_sock = s;
            s->recv(1 << 16, [&, s](std::vector<std::uint8_t> d) {
                got = std::move(d);
                s->recv(1 << 16, [&](std::vector<std::uint8_t> d2) {
                    eof_seen = d2.empty();
                });
            });
        });
    auto cli = bed.host(0).stack().tcpConnect(
        bed.addr(0, 31001), bed.addr(1, 9000), cfg, nullptr);
    bed.sim().runUntilCondition([&] { return cli->connected(); },
                                5 * sim::oneSec);
    cli->sendAll(pattern(100), [&] { cli->close(); });
    bed.sim().runUntilCondition([&] { return eof_seen; },
                                bed.sim().now() + 30 * sim::oneSec);
    EXPECT_EQ(got.size(), 100u);
    EXPECT_TRUE(eof_seen);
    EXPECT_TRUE(server_sock->eof());
}

TEST(HostSockets, ConnectionRefusedGetsRst)
{
    SocketsTestbed bed(2, SocketsFabric::GigabitEthernet);
    auto cfg = bed.tcpConfig();
    bool cb_ok = true;
    auto cli = bed.host(0).stack().tcpConnect(
        bed.addr(0, 31002), bed.addr(1, 9999), cfg,
        [&](bool ok) { cb_ok = ok; });
    bed.sim().runUntilCondition([&] { return cli->error(); },
                                10 * sim::oneSec);
    EXPECT_TRUE(cli->error());
    EXPECT_FALSE(cli->connected());
    EXPECT_FALSE(cb_ok);
}

TEST(HostSockets, UdpRoundTripWithPayload)
{
    SocketsTestbed bed(2, SocketsFabric::GigabitEthernet);
    auto srv = bed.host(1).stack().udpBind(bed.addr(1, 5353));
    auto cli = bed.host(0).stack().udpBind(bed.addr(0, 5454));

    auto payload = pattern(1200);
    std::vector<std::uint8_t> got;
    inet::SockAddr from;
    srv->recvFrom([&](UdpSocket::Datagram d) {
        got = std::move(d.data);
        from = d.from;
        srv->sendTo(got, d.from, nullptr);
    });
    std::vector<std::uint8_t> echoed;
    cli->recvFrom([&](UdpSocket::Datagram d) {
        echoed = std::move(d.data);
    });
    cli->sendTo(payload, bed.addr(1, 5353), nullptr);

    bed.sim().runUntilCondition([&] { return !echoed.empty(); },
                                5 * sim::oneSec);
    EXPECT_EQ(got, payload);
    EXPECT_EQ(echoed, payload);
    EXPECT_EQ(from, bed.addr(0, 5454));
}

TEST(HostSockets, MultiNicPerRouteEgressAndMtu)
{
    // A dual-homed host: nicA (node 0, 1500 B MTU) is the primary,
    // nicB (node 2, 576 B MTU) a second spoke into the same fabric.
    // Egress — and with it the interface MTU the IP layer fragments
    // against — follows the per-route pin, not the primary.
    sim::Simulation simv(3);
    net::StarFabric fabric(simv, "fabric", net::gigabitEthernetLink());
    host::Host h0(simv, "host0");
    host::Host h1(simv, "host1");
    auto paramsB = nic::pro1000Params();
    paramsB.mtu = 576;
    nic::EthNic nicA(simv, "host0.nic", h0.stack(), fabric.addNode(0),
                     0, nic::pro1000Params());
    nic::EthNic nic1(simv, "host1.nic", h1.stack(), fabric.addNode(1),
                     1, nic::pro1000Params());
    nic::EthNic nicB(simv, "host0.nic2", h0.stack(), fabric.addNode(2),
                     2, paramsB);

    const auto a0 = inet::InetAddr(*inet::Ipv4Addr::parse("10.0.0.1"));
    const auto a1 = inet::InetAddr(*inet::Ipv4Addr::parse("10.0.0.2"));
    h0.stack().addAddress(a0);
    h1.stack().addAddress(a1);
    h0.stack().routes().add(a1, 1);
    h1.stack().routes().add(a0, 0);

    EXPECT_EQ(h0.stack().primaryNic(), &nicA);
    EXPECT_EQ(h0.stack().egressFor(1), &nicA);

    auto srv = h1.stack().udpBind(inet::SockAddr{a1, 5353});
    auto cli = h0.stack().udpBind(inet::SockAddr{a0, 5454});
    std::vector<std::vector<std::uint8_t>> got;
    auto waitOne = std::make_shared<std::function<void()>>();
    // Weak self-reference: the pending recvFrom keeps the loop alive,
    // and nothing keeps it alive past the test.
    *waitOne = [&, weak = std::weak_ptr(waitOne)] {
        srv->recvFrom([&, loop = weak.lock()](UdpSocket::Datagram d) {
            got.push_back(std::move(d.data));
            (*loop)();
        });
    };
    (*waitOne)();

    // Default egress: the primary NIC carries the frame unfragmented.
    cli->sendTo(pattern(1000), inet::SockAddr{a1, 5353}, nullptr);
    simv.runUntilCondition([&] { return got.size() == 1; },
                           sim::oneSec);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(nicA.txPackets.value(), 1u);
    EXPECT_EQ(nicB.txPackets.value(), 0u);

    // Pin the route to nicB: same destination, new egress, and the
    // 576 B interface MTU now fragments the kilobyte datagram.
    h0.stack().setEgress(1, nicB);
    EXPECT_EQ(h0.stack().egressFor(1), &nicB);
    cli->sendTo(pattern(1000, 2), inet::SockAddr{a1, 5353}, nullptr);
    simv.runUntilCondition([&] { return got.size() == 2; },
                           simv.now() + sim::oneSec);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[1], pattern(1000, 2));
    EXPECT_EQ(nicA.txPackets.value(), 1u);
    EXPECT_EQ(nicB.txPackets.value(), 2u);
}

TEST(HostSockets, UdpQueuesWhenNoWaiter)
{
    SocketsTestbed bed(2, SocketsFabric::GigabitEthernet);
    auto srv = bed.host(1).stack().udpBind(bed.addr(1, 5353));
    auto cli = bed.host(0).stack().udpBind(bed.addr(0, 5454));
    for (int i = 0; i < 5; ++i)
        cli->sendTo(pattern(64, static_cast<std::uint8_t>(i)),
                    bed.addr(1, 5353), nullptr);
    bed.sim().runFor(10 * sim::oneMs);
    EXPECT_EQ(srv->pendingCount(), 5u);
    // Drain in order.
    std::vector<std::uint8_t> first;
    srv->recvFrom([&](UdpSocket::Datagram d) { first = d.data; });
    bed.sim().runFor(sim::oneMs);
    EXPECT_EQ(first, pattern(64, 0));
}

TEST(HostSockets, LoopbackDelivery)
{
    SocketsTestbed bed(2, SocketsFabric::GigabitEthernet);
    auto cfg = bed.tcpConfig();
    // Server and client both on host 0, via the loopback path.
    std::shared_ptr<TcpSocket> server_sock;
    std::vector<std::uint8_t> got;
    bed.host(0).stack().tcpListen(
        7777, cfg, [&](std::shared_ptr<TcpSocket> s) {
            server_sock = s;
            s->recvExact(256, [&](std::vector<std::uint8_t> d) {
                got = std::move(d);
            });
        });
    auto cli = bed.host(0).stack().tcpConnect(
        bed.addr(0, 31003), bed.addr(0, 7777), cfg, nullptr);
    bed.sim().runUntilCondition([&] { return cli->connected(); },
                                5 * sim::oneSec);
    ASSERT_TRUE(cli->connected());
    cli->sendAll(pattern(256), [] {});
    bed.sim().runUntilCondition([&] { return got.size() == 256; },
                                bed.sim().now() + 5 * sim::oneSec);
    EXPECT_EQ(got, pattern(256));
    EXPECT_GT(bed.sim().stats().counterValue("host0.stack.loopbackPkts"),
              0u);
    // Nothing crossed the wire.
    EXPECT_EQ(bed.nicOf(0).txPackets.value(), 0u);
}

TEST(HostSockets, BigTransferOverMyrinetIp)
{
    SocketsTestbed bed(2, SocketsFabric::MyrinetIp);
    auto cfg = bed.tcpConfig();
    EXPECT_GT(cfg.mss, 8000u); // 9000 MTU reflected in the MSS
    auto data = pattern(300000);
    std::vector<std::uint8_t> got;
    bed.host(1).stack().tcpListen(
        9000, cfg, [&](std::shared_ptr<TcpSocket> s) {
            s->recvExact(data.size(),
                         [&](std::vector<std::uint8_t> d) {
                             got = std::move(d);
                         });
        });
    auto cli = bed.host(0).stack().tcpConnect(
        bed.addr(0, 31004), bed.addr(1, 9000), cfg, nullptr);
    bed.sim().runUntilCondition([&] { return cli->connected(); },
                                5 * sim::oneSec);
    bool sent = false;
    cli->sendAll(data, [&] { sent = true; });
    bed.sim().runUntilCondition(
        [&] { return sent && got.size() == data.size(); },
        bed.sim().now() + 60 * sim::oneSec);
    EXPECT_EQ(got, data);
}

TEST(HostSockets, CpuTimeIsChargedForTransfers)
{
    SocketsTestbed bed(2, SocketsFabric::GigabitEthernet);
    auto cfg = bed.tcpConfig();
    std::vector<std::uint8_t> got;
    bed.host(1).stack().tcpListen(
        9000, cfg, [&](std::shared_ptr<TcpSocket> s) {
            s->recvExact(100000, [&](std::vector<std::uint8_t> d) {
                got = std::move(d);
            });
        });
    auto cli = bed.host(0).stack().tcpConnect(
        bed.addr(0, 31005), bed.addr(1, 9000), cfg, nullptr);
    bed.sim().runUntilCondition([&] { return cli->connected(); },
                                5 * sim::oneSec);
    const auto tx0 = bed.host(0).cpu().busyTotal();
    const auto rx0 = bed.host(1).cpu().busyTotal();
    cli->sendAll(pattern(100000), [] {});
    bed.sim().runUntilCondition([&] { return got.size() == 100000; },
                                bed.sim().now() + 30 * sim::oneSec);
    // Both sides burned non-trivial CPU: at least the copies
    // (100 kB x ~2 cycles/byte ~= 0.4 ms at 550 MHz).
    EXPECT_GT(bed.host(0).cpu().busyTotal() - tx0,
              300 * sim::oneUs);
    EXPECT_GT(bed.host(1).cpu().busyTotal() - rx0,
              300 * sim::oneUs);
}
