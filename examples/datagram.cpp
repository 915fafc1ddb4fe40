/**
 * @file
 * Unreliable-datagram QPs and QP<->socket interoperation.
 *
 * Part 1: two UD queue pairs exchange best-effort messages (each QP
 * message is exactly one UDP datagram, no extra protocol layer).
 *
 * Part 2: the paper's interoperability claim — "communication can
 * occur between QPIP applications or QPIP and traditional (socket)
 * systems" — demonstrated by a QPIP node sending a UDP datagram that
 * a plain sockets host receives through its kernel stack, and vice
 * versa. The QPIP NIC and the host stack share the same wire format,
 * so nothing special is needed: just routes.
 */

#include <cstdio>
#include <cstring>

#include "apps/testbed.hh"
#include "apps/verbs_util.hh"
#include "nic/eth_nic.hh"

using namespace qpip;
using namespace qpip::apps;

namespace {

bool
udQpPingPong()
{
    std::printf("--- UD queue pairs: datagram ping-pong ---\n");
    QpipTestbed bed(2);

    auto cq0 = bed.provider(0).createCq();
    auto cq1 = bed.provider(1).createCq();
    std::vector<std::uint8_t> b0(2048), b1(2048);
    auto mr0 = bed.provider(0).registerMemory(b0);
    auto mr1 = bed.provider(1).registerMemory(b1);
    auto qp0 =
        bed.provider(0).createQp(nic::QpType::UnreliableUdp, cq0, cq0);
    auto qp1 =
        bed.provider(1).createQp(nic::QpType::UnreliableUdp, cq1, cq1);
    qp0->bind(6000);
    qp1->bind(6001);

    // Node 1 echoes whatever arrives back to the sender's address.
    qp1->postRecv(1, *mr1, 0, 2048);
    spinLoop(bed.provider(1), *cq1, [&](verbs::Completion c) {
        if (!c.isSend) {
            std::printf("[node1] got %zu bytes from %s, echoing\n",
                        c.byteLen, c.from.toString().c_str());
            qp1->postSend(2, *mr1, 0, c.byteLen, c.from);
        }
    });

    const char msg[] = "best effort, no connection";
    std::memcpy(b0.data() + 1024, msg, sizeof(msg));
    qp0->postRecv(3, *mr0, 0, 1024);
    qp0->postSend(4, *mr0, 1024, sizeof(msg), bed.addr(1, 6001));

    // One flow: the exchange, done when the echo lands.
    const FlowRun run(bed, 1);
    spinLoop(bed.provider(0), *cq0, [&](verbs::Completion c) {
        if (!c.isSend) {
            std::printf("[node0] echo arrived: \"%s\"\n",
                        reinterpret_cast<const char *>(b0.data()));
            run.done(0, bed.host(0).os().curTick());
        }
    });
    return run.run();
}

bool
qpToSocketInterop()
{
    std::printf("\n--- QP <-> socket interop over one fabric ---\n");
    // Hand-built testbed: node 0 is a QPIP host, node 1 a plain
    // sockets host with the kernel stack — both on a Myrinet star.
    sim::Simulation sim(7);
    net::StarFabric fabric(sim, "fabric", net::myrinetLink(9000));
    net::Link &l0 = fabric.addNode(0);
    net::Link &l1 = fabric.addNode(1);

    auto qpip_addr = *inet::InetAddr::parse("fd00::1");
    auto sock_addr = *inet::InetAddr::parse("fd00::2");

    host::Host h0(sim, "qpip_host");
    nic::QpipNic qnic(sim, "qpip_host.nic", l0, 0, {});
    qnic.setAddress(qpip_addr);
    qnic.routes().add(sock_addr, 1);
    verbs::Provider prov(h0, qnic);

    host::Host h1(sim, "sock_host");
    nic::EthNic enic(sim, "sock_host.nic", h1.stack(), l1, 1,
                     nic::gmIpParams());
    h1.stack().addAddress(sock_addr);
    h1.stack().routes().add(qpip_addr, 0);

    // Sockets side: bind a UDP socket and echo.
    auto usock =
        h1.stack().udpBind(inet::SockAddr{sock_addr, 9999});
    usock->recvFrom([&](host::UdpSocket::Datagram d) {
        std::printf("[sockets] kernel stack got %zu bytes from %s\n",
                    d.data.size(), d.from.toString().c_str());
        usock->sendTo(std::move(d.data), d.from, nullptr);
    });

    // QPIP side: UD QP sends to the socket's port.
    auto cq = prov.createCq();
    std::vector<std::uint8_t> buf(1024);
    auto mr = prov.registerMemory(buf);
    auto qp = prov.createQp(nic::QpType::UnreliableUdp, cq, cq);
    qp->bind(6000);
    const char msg[] = "from a queue pair to a socket";
    std::memcpy(buf.data() + 512, msg, sizeof(msg));
    qp->postRecv(1, *mr, 0, 512);
    qp->postSend(2, *mr, 512, sizeof(msg),
                 inet::SockAddr{sock_addr, 9999});

    // A hand-built fabric has no testbed: its FlowRun takes the
    // fabric itself.
    const FlowRun run(sim, fabric, 1);
    spinLoop(prov, *cq, [&](verbs::Completion c) {
        if (!c.isSend) {
            std::printf("[qpip] reply landed in posted buffer: "
                        "\"%s\" (from %s)\n",
                        reinterpret_cast<const char *>(buf.data()),
                        c.from.toString().c_str());
            run.done(0, h0.os().curTick());
        }
    });
    const bool ok = run.run();
    sim.eventQueue().clear();
    return ok;
}

} // namespace

int
main()
{
    const bool ud = udQpPingPong();
    const bool interop = qpToSocketInterop();
    const bool ok = ud && interop;
    std::printf("\n%s\n", ok ? "ok" : "FAILED");
    return ok ? 0 : 1;
}
