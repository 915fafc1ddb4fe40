/**
 * @file
 * Quickstart: the smallest complete QPIP program. Two hosts on a
 * Myrinet fabric, one reliable queue pair each; the client posts a
 * receive, connects, sends a message, and both sides reap their
 * completion queues — the paper's PostSend/PostRecv/Poll workflow in
 * ~80 lines.
 *
 * Observability flags (all optional):
 *
 *   $ ./quickstart --stats=run.json --trace=run.trace.json \
 *                  --pcap=run.pcap
 *
 * --stats dumps the full stat registry as JSON, --trace writes a
 * Chrome trace_event file (chrome://tracing, ui.perfetto.dev), and
 * --pcap captures every frame on the fabric for Wireshark.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "apps/testbed.hh"
#include "apps/verbs_util.hh"
#include "net/pcap.hh"
#include "sim/trace.hh"

using namespace qpip;
using namespace qpip::apps;

namespace {

const char *
flagValue(int argc, char **argv, const char *flag)
{
    const std::size_t n = std::strlen(flag);
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], flag, n) == 0 && argv[i][n] == '=')
            return argv[i] + n + 1;
    }
    return nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *stats_path = flagValue(argc, argv, "--stats");
    const char *trace_path = flagValue(argc, argv, "--trace");
    const char *pcap_path = flagValue(argc, argv, "--pcap");

    // A two-node SAN: hosts, QPIP NICs, switch, routes.
    QpipTestbed bed(2);
    auto &sim = bed.sim();

    if (trace_path != nullptr)
        sim.tracer().enable();
    net::PcapWriter pcap;
    if (pcap_path != nullptr) {
        net::tapLink(bed.fabric().linkFor(0), pcap);
        net::tapLink(bed.fabric().linkFor(1), pcap);
    }

    // --- server (host 1): park an idle QP on port 7 ----------------
    auto &sprov = bed.provider(1);
    auto scq = sprov.createCq();
    std::vector<std::uint8_t> sbuf(4096);
    auto smr = sprov.registerMemory(sbuf);

    verbs::Acceptor acceptor(sprov, 7, scq, scq);
    std::shared_ptr<verbs::QueuePair> server_qp;
    acceptor.acceptOne([&](std::shared_ptr<verbs::QueuePair> qp) {
        std::printf("[server] connection mated to QP %u\n", qp->num());
        server_qp = qp;
        qp->postRecv(/*wr_id=*/1, *smr, 0, sbuf.size());
    });

    // --- client (host 0): connect and send -------------------------
    auto &cprov = bed.provider(0);
    auto ccq = cprov.createCq();
    std::vector<std::uint8_t> cbuf(4096);
    auto cmr = cprov.registerMemory(cbuf);
    auto client_qp =
        cprov.createQp(nic::QpType::ReliableTcp, ccq, ccq);

    const char greeting[] = "hello, queue pair IP!";
    client_qp->connect(bed.addr(1, 7), [&](bool ok) {
        if (!ok) {
            std::printf("[client] connect failed\n");
            return;
        }
        std::printf("[client] connected, posting send\n");
        std::memcpy(cbuf.data(), greeting, sizeof(greeting));
        client_qp->postSend(/*wr_id=*/2, *cmr, 0, sizeof(greeting));
    });

    // --- reap completions -------------------------------------------
    // The run's two flows: the server's receive and the client's send
    // each finish in their own completion callback.
    const FlowRun run(bed, 2);
    spinLoop(sprov, *scq, [&](verbs::Completion c) {
        std::printf("[server] completion: wr=%llu %s, %zu bytes: "
                    "\"%s\"\n",
                    static_cast<unsigned long long>(c.wrId),
                    nic::wcStatusName(c.status), c.byteLen,
                    reinterpret_cast<const char *>(sbuf.data()));
        run.done(0, bed.host(1).os().curTick());
    });
    spinLoop(cprov, *ccq, [&](verbs::Completion c) {
        std::printf("[client] send completion: wr=%llu %s "
                    "(message ACKed end-to-end)\n",
                    static_cast<unsigned long long>(c.wrId),
                    nic::wcStatusName(c.status));
        run.done(1, bed.host(0).os().curTick());
    });

    // Run to the stop tick, where the results are read.
    const bool ok = run.run();
    std::printf("done at t=%.1f us (simulated)\n",
                sim::ticksToUs(sim.now()));

    if (stats_path != nullptr) {
        const std::string json = sim.stats().jsonDump();
        if (std::FILE *f = std::fopen(stats_path, "w")) {
            std::fwrite(json.data(), 1, json.size(), f);
            std::fclose(f);
            std::printf("stats:  %s (%zu stats)\n", stats_path,
                        sim.stats().size());
        }
    }
    if (trace_path != nullptr && sim.tracer().writeFile(trace_path)) {
        std::printf("trace:  %s (%zu events)\n", trace_path,
                    sim.tracer().numEvents());
    }
    if (pcap_path != nullptr && pcap.writeFile(pcap_path)) {
        std::printf("pcap:   %s (%zu frames)\n", pcap_path,
                    pcap.frames());
    }
    return ok ? 0 : 1;
}
