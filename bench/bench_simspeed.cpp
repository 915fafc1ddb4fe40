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
 * pairs' own elapsed window, the two-host rows from the start to the
 * harness's stop tick, and every row counts the events executed up
 * to that tick (apps::FlowRun), which a partitioned run must
 * reproduce exactly: the bench aborts when a partitioned row's events
 * or simTicks differ from its serial row's.
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

/**
 * Run @p body on @p sim, a fresh testbed's simulation, filling the
 * wall, event and tick columns around it: every harness returns at
 * its stop tick, where the events and the clock are read.
 */
template <typename Body>
WorkloadResult
timed(const std::string &name, bool ttcp, sim::Simulation &sim,
      std::uint64_t sim_bytes, Body &&body)
{
    WorkloadResult r;
    r.name = name;
    r.ttcp = ttcp;
    r.simBytes = sim_bytes;
    const auto wall0 = std::chrono::steady_clock::now();
    r.completed = body();
    const auto wall1 = std::chrono::steady_clock::now();
    r.simTicks = sim.now();
    r.events = sim.engine().executed();
    r.wallSeconds =
        std::chrono::duration<double>(wall1 - wall0).count();
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
        return timed("ttcp_sockets_myrinet", true, bed.sim(), bytes, [&] {
            return runSocketsTtcp(bed, bytes).completed;
        });
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
        return timed("nbd_sockets_gige_read", false, bed.sim(), bytes, [&] {
            return runNbdSocketsSequential(bed, 0, 1, false, bytes)
                .completed;
        });
    });
    work.push_back([bytes] {
        QpipTestbed bed(2, 9000);
        ServerStore store(bed.sim(), "store", bytes);
        NbdQpipServer server(bed.provider(1), store, {});
        return timed("nbd_qpip_read", false, bed.sim(), bytes, [&] {
            return runNbdQpipSequential(bed, 0, 1, false, bytes).completed;
        });
    });

    // A ttcp-pairs row: the fabric split by switch across t workers,
    // or unpartitioned at t = 0.
    const auto pairs_row = [](std::string name, std::size_t hosts,
                              FabricTopology topology, int t,
                              std::vector<TtcpPair> pairs,
                              std::uint64_t per_pair) {
        return [=] {
            SocketsTestbed bed(hosts, SocketsFabric::GigabitEthernet, 1,
                               host::HostCostModel{}, topology);
            if (t > 0)
                bed.enableParallel(t);
            MultiTtcpResult m;
            auto r = timed(name, false, bed.sim(), per_pair * pairs.size(),
                           [&] {
                               m = runSocketsTtcpPairs(bed, pairs, per_pair);
                               return m.completed;
                           });
            // The row covers the pairs' own elapsed window.
            r.simTicks = m.elapsedTicks;
            r.threads = t;
            if (t > 0)
                captureEngineStats(r, bed.sim());
            return r;
        };
    };

    // Scale-out sweep: 8 hosts on a dual-star, every ordered pair.
    const auto pairs = allPairs(8);
    const std::uint64_t per_pair = std::max<std::uint64_t>(
        bytes / pairs.size(), std::uint64_t(64) << 10);
    work.push_back(pairs_row("ttcp_dualstar8_serial", 8,
                             FabricTopology::DualStar, 0, pairs, per_pair));
    work.push_back(pairs_row("ttcp_dualstar8_parallel", 8,
                             FabricTopology::DualStar, threads, pairs,
                             per_pair));

    // Fabric scaling arm: one shift of the all-to-all on the 128-host
    // k=8 fat-tree — an unpartitioned baseline, then the fabric split
    // by switch at every requested worker count. Identical simulated
    // work per point, so the curve isolates engine overhead/speedup.
    if (!fabric_threads.empty()) {
        const auto fpairs = uniformShiftPairs(128, 1);
        const std::uint64_t f_per_pair = std::max<std::uint64_t>(
            bytes / 4 / fpairs.size(), std::uint64_t(16) << 10);
        work.push_back(pairs_row("ttcp_fattree128_serial", 128,
                                 FabricTopology::FatTreeK8, 0, fpairs,
                                 f_per_pair));
        for (const int t : fabric_threads) {
            work.push_back(pairs_row("ttcp_fattree128_t" + std::to_string(t),
                                     128, FabricTopology::FatTreeK8, t,
                                     fpairs, f_per_pair));
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
 * A partitioned ttcp-pairs row must reproduce its serial row's events
 * and elapsed window (see runSocketsTtcpPairs): abort otherwise.
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
            if (r.events != serial.events ||
                r.simTicks != serial.simTicks) {
                sim::panic("bench_simspeed: %s (events %llu, simTicks "
                           "%llu) differs from %s (%llu, %llu)",
                           r.name.c_str(),
                           static_cast<unsigned long long>(r.events),
                           static_cast<unsigned long long>(r.simTicks),
                           serial.name.c_str(),
                           static_cast<unsigned long long>(
                               serial.events),
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
