/**
 * @file
 * Host-model tests: CPU accounting, the sockets API over a real
 * testbed (connect/accept, stream integrity, EOF, UDP), the loopback
 * path, and connection refusal.
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
    sim::Simulation sim;
    // 550 MHz: a cycle is not a whole number of ticks.
    host::CpuModel one(sim, "one", 550'000'000);
    host::CpuModel batch(sim, "batch", 550'000'000);
    one.run(333, [] {});
    batch.run(333, [] {});
    for (int i = 0; i < 1000; ++i)
        one.charge(60);
    batch.charge(60, 1000);
    EXPECT_EQ(batch.busyTotal(), one.busyTotal());
    EXPECT_EQ(batch.busyUntil(), one.busyUntil());
    // Starting from an idle CPU, the batch starts at now().
    sim.runUntil(one.busyUntil() + 5 * sim::oneUs);
    one.charge(60);
    one.charge(60);
    batch.charge(60, 2);
    EXPECT_EQ(batch.busyUntil(), one.busyUntil());
    EXPECT_EQ(batch.busyTotal(), one.busyTotal());
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
    EXPECT_GT(bed.host(0).stack().loopbackPkts.value(), 0u);
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
