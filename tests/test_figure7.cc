/**
 * @file
 * Figure 7 pins: the six fig7_nbd rows (sequential NBD write then read
 * through the client filesystem, as bench/fig7_nbd runs them, on a
 * 16 MB device instead of the paper's 409 MB) must reproduce exactly,
 * and the paper's claims about them must hold no further from the
 * paper than EXPERIMENTS.md records: QPIP leads IP/Myrinet, which
 * leads IP/GigE, in both phases; QPIP reads near 70 MB/s; and QPIP's
 * CPU effectiveness is at least the paper's "133 % better" than the
 * host stacks'.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "apps/disk.hh"
#include "apps/nbd.hh"
#include "apps/testbed.hh"

using namespace qpip;
using namespace qpip::apps;

namespace {

/** Throughput is size-invariant past a few MB (see fig7_nbd). */
constexpr std::uint64_t deviceBytes = std::uint64_t(16) << 20;

/** One system's write and read phase. */
struct Phases
{
    NbdRunResult write;
    NbdRunResult read;
};

/** Every fig7_nbd row, in the bench's order. */
struct Figure7
{
    Phases gige;
    Phases myrinet;
    Phases qpip;
};

Phases
socketsRows(SocketsFabric fabric)
{
    SocketsTestbed bed(2, fabric);
    ServerStore store(bed.sim(), "store", deviceBytes);
    NbdSocketServer server(bed.host(1).stack(), store, {});
    Phases p;
    p.write = runNbdSocketsSequential(bed, 0, 1, true, deviceBytes);
    p.read = runNbdSocketsSequential(bed, 0, 1, false, deviceBytes);
    return p;
}

Phases
qpipRows()
{
    // The paper's QPIP NBD runs used a 9000-byte MTU.
    QpipTestbed bed(2, 9000);
    ServerStore store(bed.sim(), "store", deviceBytes);
    NbdQpipServer server(bed.provider(1), store, {});
    Phases p;
    p.write = runNbdQpipSequential(bed, 0, 1, true, deviceBytes);
    p.read = runNbdQpipSequential(bed, 0, 1, false, deviceBytes);
    return p;
}

/** The rows, simulated once per test process. */
const Figure7 &
figure7()
{
    static const Figure7 rows{
        socketsRows(SocketsFabric::GigabitEthernet),
        socketsRows(SocketsFabric::MyrinetIp),
        qpipRows(),
    };
    return rows;
}

void
expectRow(const NbdRunResult &r, double mb_per_sec, double cpu,
          double mb_per_cpu_sec)
{
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.dataOk);
    EXPECT_EQ(r.mbPerSec, mb_per_sec);
    EXPECT_EQ(r.clientCpuUtil, cpu);
    EXPECT_EQ(r.mbPerCpuSec, mb_per_cpu_sec);
}

} // namespace

TEST(Figure7, RowsMatchTheRecordedResults)
{
    // Recorded from bench/fig7_nbd's configuration at QPIP_NBD_MB=16;
    // every row is a deterministic simulation, so any change is a
    // behaviour change.
    const Figure7 &f = figure7();
    {
        SCOPED_TRACE("IP/GigE write");
        expectRow(f.gige.write,
                  37.562583112897208, 0.87990765381679514,
                  42.689233296200072);
    }
    {
        SCOPED_TRACE("IP/GigE read");
        expectRow(f.gige.read,
                  37.248067255321509, 0.9991609034815786,
                  37.279348226627491);
    }
    {
        SCOPED_TRACE("IP/Myrinet write");
        expectRow(f.myrinet.write,
                  46.353947108191939, 0.64512388614381089,
                  71.85278378897091);
    }
    {
        SCOPED_TRACE("IP/Myrinet read");
        expectRow(f.myrinet.read,
                  58.94178498001547, 0.88197821084688954,
                  66.829071574703221);
    }
    {
        SCOPED_TRACE("QPIP write");
        expectRow(f.qpip.write,
                  46.60175645392178, 0.23750422200496044,
                  196.21443383414243);
    }
    {
        SCOPED_TRACE("QPIP read");
        expectRow(f.qpip.read,
                  68.895983031500037, 0.3544498237878837,
                  194.37443160567071);
    }
}

TEST(Figure7, QpipLeadsMyrinetLeadsGigeInBothPhases)
{
    const Figure7 &f = figure7();
    EXPECT_GE(f.qpip.write.mbPerSec, f.myrinet.write.mbPerSec);
    EXPECT_GE(f.myrinet.write.mbPerSec, f.gige.write.mbPerSec);
    EXPECT_GE(f.qpip.read.mbPerSec, f.myrinet.read.mbPerSec);
    EXPECT_GE(f.myrinet.read.mbPerSec, f.gige.read.mbPerSec);
}

TEST(Figure7, QpipReadIsNearSeventyMbPerSec)
{
    // EXPERIMENTS.md: 71.9 MB/s at 409 MB against the paper's 70.
    const Figure7 &f = figure7();
    EXPECT_LE(std::abs(f.qpip.read.mbPerSec - 70.0), 71.9 - 70.0);
}

TEST(Figure7, CpuEffectivenessIsAtLeastThePapersMargin)
{
    // The paper: "up to 133 % better CPU effectiveness", 2.33x.
    // EXPERIMENTS.md measures 2.7-5.3x over both host stacks.
    const Figure7 &f = figure7();
    for (const Phases *host : {&f.gige, &f.myrinet}) {
        EXPECT_GE(f.qpip.write.mbPerCpuSec,
                  2.33 * host->write.mbPerCpuSec);
        EXPECT_GE(f.qpip.read.mbPerCpuSec,
                  2.33 * host->read.mbPerCpuSec);
    }
}
