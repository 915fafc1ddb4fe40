/**
 * @file
 * The paper's storage application (Figures 5-7): a Network Block
 * Device served over QPIP and over classic sockets, side by side. A
 * small device is written sequentially, synced, and read back with
 * verification; the demo prints throughput and client CPU
 * effectiveness for both transports, and exits 1 if any phase is
 * incomplete or reads back the wrong data.
 *
 *   $ ./nbd_demo [device_MB]
 */

#include <cstdio>
#include <cstdlib>

#include "apps/nbd.hh"

using namespace qpip;
using namespace qpip::apps;

namespace {

/** Print one phase; @return whether it completed with intact data. */
bool
report(const char *system, const char *phase, const NbdRunResult &r)
{
    std::printf("  %-10s %-6s %7.1f MB/s  cpu=%5.1f%%  "
                "%6.1f MB/CPU-s  %s%s\n",
                system, phase, r.mbPerSec, r.clientCpuUtil * 100.0,
                r.mbPerCpuSec, r.completed ? "ok" : "INCOMPLETE",
                r.dataOk ? "" : " DATA-MISMATCH");
    return r.completed && r.dataOk;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::uint64_t device_mb =
        argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 32;
    const std::uint64_t bytes = device_mb << 20;
    std::printf("NBD demo: %llu MB device, sequential write+sync then"
                " read-back\n",
                static_cast<unsigned long long>(device_mb));

    NbdClientParams params;
    params.verifyContent = true;
    bool ok = true;

    {
        std::printf("\nsockets transport (IP/GigE):\n");
        SocketsTestbed bed(2, SocketsFabric::GigabitEthernet);
        ServerStore store(bed.sim(), "store", bytes);
        NbdSocketServer server(bed.host(1).stack(), store, {});
        const auto w =
            runNbdSocketsSequential(bed, 0, 1, true, bytes, params);
        ok = report("IP/GigE", "write", w) && ok;
        const auto r =
            runNbdSocketsSequential(bed, 0, 1, false, bytes, params);
        ok = report("IP/GigE", "read", r) && ok;
    }
    {
        std::printf("\nQPIP transport (9000 B MTU):\n");
        QpipTestbed bed(2, 9000);
        ServerStore store(bed.sim(), "store", bytes);
        NbdQpipServer server(bed.provider(1), store, {});
        const auto w = runNbdQpipSequential(bed, 0, 1, true, bytes, params);
        ok = report("QPIP", "write", w) && ok;
        const auto r =
            runNbdQpipSequential(bed, 0, 1, false, bytes, params);
        ok = report("QPIP", "read", r) && ok;
    }
    std::printf("\n%s\n", ok ? "done" : "FAILED");
    return ok ? 0 : 1;
}
