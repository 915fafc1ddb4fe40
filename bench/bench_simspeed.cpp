/**
 * @file
 * Simulator-speed benchmark: how fast does the simulation itself run
 * on the host executing it? Every other bench in this directory
 * measures *simulated* performance (MB/s on the modeled wire); this
 * one measures wall-clock cost — events/sec, simulated-bytes per
 * wall-second and sim-ticks per wall-second — for a fixed amount of
 * simulated work on the ttcp and NBD testbeds.
 *
 * Output is a JSON report (default ./BENCH_simspeed.json, override
 * with --out=<path>) so CI can archive the trajectory and perf PRs
 * can show before/after numbers instead of claiming them. Workload
 * sizes scale with QPIP_SIMSPEED_MB (default 32).
 *
 * The dual-star scale-out workload (8 hosts, all ordered pairs) runs
 * twice: once unpartitioned (the engine's one partition, the "_serial"
 * row) and once split by switch with --threads=N workers (or
 * QPIP_SIMSPEED_THREADS, default 1).
 * Neither run counts toward the legacy ttcp aggregate, so the
 * headline number stays comparable with earlier records. The
 * ttcp-pairs rows (dual-star and fat-tree) take simTicks from the
 * pairs' own elapsed window, which a partitioned run must reproduce
 * exactly: the bench aborts when a partitioned row's simTicks differs
 * from its serial row's.
 *
 * The fabric arm sweeps the parallel engine across thread counts on
 * the 128-host k=8 fat-tree (one shift of the all-to-all): an
 * unpartitioned baseline plus one point per count in --fabric-threads=
 * (or QPIP_SIMSPEED_FABRIC_THREADS, default "1,2,4,8"; pass an empty
 * list to skip the arm). CI prunes the list to the cores the runner
 * actually has; the host's core count is recorded in the JSON so a
 * flat curve on a one-core box reads as methodology, not regression.
 *
 * Wall columns are interleaved best-of-N (QPIP_SIMSPEED_REPS, default
 * 1): reps run rep-major across the whole workload list and each
 * workload keeps its minimum wall time, with the simulated fields
 * asserted identical across reps (see bench_common.hh).
 *
 * Wall time is intentionally nondeterministic; everything *simulated*
 * here is seed-1 deterministic, so two runs differ only in the wall
 * columns. This binary lives in bench/ (not src/), outside the
 * qpip-lint D1 no-wall-clock rule, which is what makes it allowed to
 * look at std::chrono at all.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "apps/nbd.hh"
#include "apps/ttcp.hh"
#include "bench_common.hh"
#include "sim/logging.hh"

using namespace qpip;
using namespace qpip::apps;
using qpip::bench::envKnob;

namespace {

struct WorkloadResult
{
    std::string name;
    /** Counts toward the headline ttcp events/sec aggregate. */
    bool ttcp = false;
    std::uint64_t events = 0;
    std::uint64_t simTicks = 0;
    std::uint64_t simBytes = 0;
    double wallSeconds = 0.0;
    bool completed = false;
    /**
     * Worker threads (-1: a two-host row, no field; 0: the
     * unpartitioned row of a scale-out pair).
     */
    int threads = -1;
    /** Engine counters (parallel workloads only; deterministic). */
    std::uint64_t epochs = 0;
    std::uint64_t mailboxPosts = 0;
    std::uint64_t batchedPosts = 0;
    std::uint64_t horizonStalls = 0;

    double eventsPerSec() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(events) / wallSeconds
                   : 0.0;
    }
    double simBytesPerWallSec() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(simBytes) / wallSeconds
                   : 0.0;
    }
    double simTicksPerWallSec() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(simTicks) / wallSeconds
                   : 0.0;
    }
};

std::size_t
scaleMb()
{
    return envKnob("QPIP_SIMSPEED_MB", 32);
}

int
threadKnob()
{
    return static_cast<int>(envKnob("QPIP_SIMSPEED_THREADS", 1));
}

/** Parse a comma-separated thread-count list ("1,2,4,8"). */
std::vector<int>
parseThreadList(const std::string &spec)
{
    std::vector<int> out;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        const std::size_t comma = spec.find(',', pos);
        const std::string tok =
            spec.substr(pos, comma == std::string::npos
                                 ? std::string::npos
                                 : comma - pos);
        const int v = std::atoi(tok.c_str());
        if (v > 0)
            out.push_back(v);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

/** Run @p body, filling the wall/event/tick columns around it. */
template <typename Body>
WorkloadResult
timed(const std::string &name, bool ttcp, sim::Simulation &sim,
      std::uint64_t sim_bytes, Body &&body)
{
    WorkloadResult r;
    r.name = name;
    r.ttcp = ttcp;
    r.simBytes = sim_bytes;
    const std::uint64_t events0 = sim.engine().executed();
    const sim::Tick t0 = sim.now();
    const auto wall0 = std::chrono::steady_clock::now();
    r.completed = body();
    const auto wall1 = std::chrono::steady_clock::now();
    r.events = sim.engine().executed() - events0;
    r.simTicks = sim.now() - t0;
    r.wallSeconds =
        std::chrono::duration<double>(wall1 - wall0).count();
    return r;
}

/**
 * A ttcp-pairs row: simTicks is the pairs' own elapsed window, the
 * same serial or partitioned, not where the run call returned.
 */
WorkloadResult
timedPairs(const std::string &name, SocketsTestbed &bed,
           const std::vector<TtcpPair> &pairs, std::uint64_t per_pair)
{
    MultiTtcpResult m;
    WorkloadResult r = timed(
        name, false, bed.sim(), per_pair * pairs.size(), [&] {
            m = runSocketsTtcpPairs(bed, pairs, per_pair);
            return m.completed;
        });
    r.simTicks = m.elapsedTicks;
    return r;
}

/** Fold the engine's deterministic counters into a parallel row. */
void
captureEngineStats(WorkloadResult &r, const sim::Simulation &sim)
{
    const auto &stats = sim.stats();
    r.epochs = stats.counterValue("parallel.epochs");
    r.mailboxPosts = stats.counterValue("parallel.mailboxPosts");
    r.batchedPosts = stats.counterValue("parallel.batchedPosts");
    r.horizonStalls = stats.counterValue("parallel.horizonStalls");
}

/**
 * Build the workload list as factories: each invocation constructs a
 * fresh testbed and runs the workload once, so best-of-N reps replay
 * the identical simulation on a cold model.
 */
std::vector<std::function<WorkloadResult()>>
buildWorkloads(int threads, const std::vector<int> &fabric_threads)
{
    const std::uint64_t bytes = std::uint64_t(scaleMb()) << 20;
    std::vector<std::function<WorkloadResult()>> work;

    work.push_back([bytes] {
        SocketsTestbed bed(2, SocketsFabric::GigabitEthernet);
        return timed("ttcp_sockets_gige", true, bed.sim(), bytes, [&] {
            return runSocketsTtcp(bed, bytes).completed;
        });
    });
    work.push_back([bytes] {
        SocketsTestbed bed(2, SocketsFabric::MyrinetIp);
        return timed("ttcp_sockets_myrinet", true, bed.sim(), bytes,
                     [&] { return runSocketsTtcp(bed, bytes).completed; });
    });
    work.push_back([bytes] {
        QpipTestbed bed(2);
        return timed("ttcp_qpip", true, bed.sim(), bytes, [&] {
            return runQpipTtcp(bed, bytes).completed;
        });
    });
    work.push_back([bytes] {
        SocketsTestbed bed(2, SocketsFabric::GigabitEthernet);
        ServerStore store(bed.sim(), "store", bytes);
        NbdSocketServer server(bed.host(1).stack(), store, {});
        return timed("nbd_sockets_gige_read", false, bed.sim(), bytes,
                     [&] {
                         return runNbdSocketsSequential(bed, 0, 1,
                                                        false, bytes)
                             .completed;
                     });
    });
    work.push_back([bytes] {
        QpipTestbed bed(2, 9000);
        ServerStore store(bed.sim(), "store", bytes);
        NbdQpipServer server(bed.provider(1), store, {});
        return timed("nbd_qpip_read", false, bed.sim(), bytes, [&] {
            return runNbdQpipSequential(bed, 0, 1, false, bytes)
                .completed;
        });
    });

    // Scale-out sweep: 8 hosts on a dual-star, every ordered pair.
    const auto pairs = allPairs(8);
    const std::uint64_t per_pair = std::max<std::uint64_t>(
        bytes / pairs.size(), std::uint64_t(64) << 10);
    work.push_back([pairs, per_pair] {
        SocketsTestbed bed(8, SocketsFabric::GigabitEthernet, 1,
                           host::HostCostModel{},
                           FabricTopology::DualStar);
        auto r = timedPairs("ttcp_dualstar8_serial", bed, pairs, per_pair);
        r.threads = 0;
        return r;
    });
    work.push_back([threads, pairs, per_pair] {
        SocketsTestbed bed(8, SocketsFabric::GigabitEthernet, 1,
                           host::HostCostModel{},
                           FabricTopology::DualStar);
        bed.enableParallel(threads);
        auto r = timedPairs("ttcp_dualstar8_parallel", bed, pairs,
                            per_pair);
        r.threads = threads;
        captureEngineStats(r, bed.sim());
        return r;
    });

    // Fabric scaling arm: one shift of the all-to-all on the 128-host
    // k=8 fat-tree — an unpartitioned baseline, then the fabric split
    // by switch at every requested worker count. Identical simulated
    // work per point, so the curve isolates engine overhead/speedup.
    if (!fabric_threads.empty()) {
        const auto fpairs = uniformShiftPairs(128, 1);
        const std::uint64_t f_per_pair = std::max<std::uint64_t>(
            bytes / 4 / fpairs.size(), std::uint64_t(16) << 10);
        work.push_back([fpairs, f_per_pair] {
            SocketsTestbed bed(128, SocketsFabric::GigabitEthernet, 1,
                               host::HostCostModel{},
                               FabricTopology::FatTreeK8);
            auto r = timedPairs("ttcp_fattree128_serial", bed, fpairs,
                                f_per_pair);
            r.threads = 0;
            return r;
        });
        for (const int t : fabric_threads) {
            work.push_back([t, fpairs, f_per_pair] {
                SocketsTestbed bed(128, SocketsFabric::GigabitEthernet,
                                   1, host::HostCostModel{},
                                   FabricTopology::FatTreeK8);
                bed.enableParallel(t);
                auto r = timedPairs(
                    "ttcp_fattree128_t" + std::to_string(t), bed, fpairs,
                    f_per_pair);
                r.threads = t;
                captureEngineStats(r, bed.sim());
                return r;
            });
        }
    }
    return work;
}

std::vector<WorkloadResult>
runAll(int threads, const std::vector<int> &fabric_threads,
       std::size_t reps)
{
    const auto work = buildWorkloads(threads, fabric_threads);
    // Interleaved best-of-N (see bench_common.hh): simulated fields
    // must replay identically; wall keeps the per-workload minimum.
    return qpip::bench::bestOfN(
        work.size(), reps, [&](std::size_t i) { return work[i](); },
        [](const WorkloadResult &a, const WorkloadResult &b) {
            return a.events == b.events && a.simTicks == b.simTicks &&
                   a.simBytes == b.simBytes &&
                   a.completed == b.completed &&
                   a.epochs == b.epochs &&
                   a.mailboxPosts == b.mailboxPosts &&
                   a.batchedPosts == b.batchedPosts &&
                   a.horizonStalls == b.horizonStalls;
        },
        [](WorkloadResult &kept, const WorkloadResult &p) {
            kept.wallSeconds =
                std::min(kept.wallSeconds, p.wallSeconds);
        },
        [](const WorkloadResult &p) { return p.name; });
}

/**
 * A partitioned ttcp-pairs row must reproduce its serial row's
 * elapsed window (see runSocketsTtcpPairs): abort otherwise.
 */
void
checkPartitionedMatchesSerial(const std::vector<WorkloadResult> &results)
{
    for (const auto &serial : results) {
        if (serial.threads != 0)
            continue;
        const std::string scenario =
            serial.name.substr(0, serial.name.rfind('_') + 1);
        for (const auto &r : results) {
            if (r.threads < 1 || r.name.compare(0, scenario.size(),
                                                scenario) != 0)
                continue;
            if (r.simTicks != serial.simTicks) {
                sim::panic("bench_simspeed: %s simTicks %llu differs "
                           "from %s's %llu",
                           r.name.c_str(),
                           static_cast<unsigned long long>(r.simTicks),
                           serial.name.c_str(),
                           static_cast<unsigned long long>(
                               serial.simTicks));
            }
        }
    }
}

void
writeJson(const std::vector<WorkloadResult> &results, std::size_t reps,
          const std::string &path)
{
    std::uint64_t ttcp_events = 0;
    double ttcp_wall = 0.0;
    std::vector<std::string> rows;
    for (const auto &r : results) {
        if (r.ttcp) {
            ttcp_events += r.events;
            ttcp_wall += r.wallSeconds;
        }
        std::string threads_field;
        if (r.threads >= 0)
            threads_field =
                "\"threads\": " + std::to_string(r.threads) + ", ";
        if (r.threads >= 1) {
            threads_field += "\"epochs\": " + std::to_string(r.epochs) +
                             ", \"mailboxPosts\": " +
                             std::to_string(r.mailboxPosts) +
                             ", \"batchedPosts\": " +
                             std::to_string(r.batchedPosts) +
                             ", \"horizonStalls\": " +
                             std::to_string(r.horizonStalls) + ", ";
        }
        rows.push_back(sim::strfmt(
            "{\"name\": \"%s\", %s\"completed\": %s, "
            "\"events\": %llu, \"simTicks\": %llu, "
            "\"simBytes\": %llu, \"wallSeconds\": %.4f, "
            "\"eventsPerSec\": %.0f, \"simBytesPerWallSec\": %.0f, "
            "\"simTicksPerWallSec\": %.0f}",
            r.name.c_str(), threads_field.c_str(),
            r.completed ? "true" : "false",
            static_cast<unsigned long long>(r.events),
            static_cast<unsigned long long>(r.simTicks),
            static_cast<unsigned long long>(r.simBytes), r.wallSeconds,
            r.eventsPerSec(), r.simBytesPerWallSec(),
            r.simTicksPerWallSec()));
    }
    const double agg =
        ttcp_wall > 0.0 ? static_cast<double>(ttcp_events) / ttcp_wall
                        : 0.0;
    qpip::bench::writeRecord(
        path, "simspeed",
        {{"scaleMb", std::to_string(scaleMb())},
         {"reps", std::to_string(reps)}},
        "workloads", rows,
        {{"aggregate",
          sim::strfmt("{\"ttcpEvents\": %llu, "
                      "\"ttcpWallSeconds\": %.4f, "
                      "\"ttcpEventsPerSec\": %.0f}",
                      static_cast<unsigned long long>(ttcp_events),
                      ttcp_wall, agg)}});
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out =
        qpip::bench::outPath(argc, argv, "BENCH_simspeed.json");
    int threads = threadKnob();
    std::string fabric_spec = "1,2,4,8";
    if (const char *env = std::getenv("QPIP_SIMSPEED_FABRIC_THREADS"))
        fabric_spec = env;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--threads=", 10) == 0)
            threads = std::max(1, std::atoi(argv[i] + 10));
        else if (std::strncmp(argv[i], "--fabric-threads=", 17) == 0)
            fabric_spec = argv[i] + 17;
    }
    const std::size_t reps = envKnob("QPIP_SIMSPEED_REPS", 1);

    auto results =
        runAll(threads, parseThreadList(fabric_spec), reps);
    checkPartitionedMatchesSerial(results);

    std::printf("\n=== simulator speed (%zu MB per workload, "
                "%d worker thread%s) ===\n",
                scaleMb(), threads, threads == 1 ? "" : "s");
    std::printf("%-24s %12s %10s %14s %14s\n", "workload", "events",
                "wall_s", "events/sec", "simMB/wall_s");
    std::uint64_t ttcp_events = 0;
    double ttcp_wall = 0.0;
    for (const auto &r : results) {
        std::printf("%-24s %12llu %10.3f %14.0f %14.1f%s\n",
                    r.name.c_str(),
                    static_cast<unsigned long long>(r.events),
                    r.wallSeconds, r.eventsPerSec(),
                    r.simBytesPerWallSec() / (1024.0 * 1024.0),
                    qpip::bench::incompleteMark(r.completed));
        if (r.ttcp) {
            ttcp_events += r.events;
            ttcp_wall += r.wallSeconds;
        }
    }
    std::printf("%-24s %12llu %10.3f %14.0f\n", "ttcp aggregate",
                static_cast<unsigned long long>(ttcp_events), ttcp_wall,
                ttcp_wall > 0.0
                    ? static_cast<double>(ttcp_events) / ttcp_wall
                    : 0.0);

    writeJson(results, reps, out);
    return qpip::bench::recordExit(results);
}
