/**
 * @file
 * Runs one repetition of one workload and prints what it measured as
 * a single JSON line: wall-clock phases (set-up, run, teardown, peak
 * RSS), the seed-deterministic simulated results, the layer counts of
 * the measured phase and, when tracing, per-span-name totals.
 * perfbench/run.py repeats this, checks the results and reduces them
 * to the benchmark's metrics.
 *
 *   perfbench_driver --workload fanin|pingpong|fabric --seed N
 *                    [--trace] [--spans FILE] [--smoke]
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "trace.hh"
#include "workload.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace perfbench;

namespace {

/**
 * Set-up and teardown are short next to the run, so they are timed in
 * cycles of their own (set up, tear down) before the measured one: at
 * least this many, and more while they take under the budget.
 */
constexpr std::size_t minSetupCycles = 3;
constexpr std::size_t maxSetupCycles = 200;
constexpr double setupBudgetS = 0.3;

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n == 0 ? 0.0
                  : n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (const char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        out += ch >= 0x20 ? ch : '?';
    }
    return out + "\"";
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Nearest-rank percentile of sorted @p v (0 when empty). */
qpip::sim::Tick
percentile(const std::vector<qpip::sim::Tick> &v, double q)
{
    if (v.empty())
        return 0;
    auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
    if (static_cast<double>(rank) < q * static_cast<double>(v.size()))
        ++rank;
    return v[std::max<std::size_t>(rank, 1) - 1];
}

/**
 * Peak resident memory of this process. VmHWM, not getrusage: Linux
 * carries ru_maxrss across execve, so a driver started from a larger
 * parent would report the parent's peak.
 */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::strncmp(line, "VmHWM:", 6) == 0)
            kib = std::strtod(line + 6, nullptr);
    }
    std::fclose(f);
    return kib / 1024.0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload fanin|pingpong|fabric "
                 "--seed N [--trace] [--spans FILE] [--smoke]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::string spansPath;
    Options opts;
    bool trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--workload" && i + 1 < argc)
            workload = argv[++i];
        else if (a == "--seed" && i + 1 < argc)
            opts.seed = std::strtoull(argv[++i], nullptr, 10);
        else if (a == "--spans" && i + 1 < argc)
            spansPath = argv[++i];
        else if (a == "--trace")
            trace = true;
        else if (a == "--smoke")
            opts.smoke = true;
        else
            return usage();
    }
    std::unique_ptr<Workload> (*factory)(const Options &) = nullptr;
    if (workload == "fanin")
        factory = makeFanin;
    else if (workload == "pingpong")
        factory = makePingpong;
    else if (workload == "fabric")
        factory = makeFabric;
    else
        return usage();

    // Timings from an unoptimised or assert-enabled build say nothing
    // about the simulator; refuse to produce them.
    bool release = std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#ifndef NDEBUG
    release = false;
#endif
    if (!release) {
        std::fprintf(stderr,
                     "perfbench_driver: built as '%s'; numbers are only "
                     "recorded from a Release build\n",
                     PERFBENCH_BUILD_TYPE);
        return 3;
    }

    setTracing(trace);
    RepResult r;
    std::vector<double> setupS, teardownS;
    double runS = 0;
    try {
        double cycled = 0;
        while (setupS.size() < minSetupCycles ||
               (cycled < setupBudgetS && setupS.size() < maxSetupCycles)) {
            const std::int64_t t0 = wallNs();
            std::unique_ptr<Workload> w = factory(opts);
            const std::int64_t t1 = wallNs();
            w.reset();
            const std::int64_t t2 = wallNs();
            setupS.push_back(static_cast<double>(t1 - t0) * 1e-9);
            teardownS.push_back(static_cast<double>(t2 - t1) * 1e-9);
            cycled += static_cast<double>(t2 - t0) * 1e-9;
        }
        std::unique_ptr<Workload> w = factory(opts);
        const std::int64_t t0 = wallNs();
        w->run(r);
        runS = static_cast<double>(wallNs() - t0) * 1e-9;
        w->collect(r);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }
    setTracing(false);
    if (!spansPath.empty() && !dumpSpans(spansPath)) {
        std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                     spansPath.c_str());
        return 1;
    }

    std::sort(r.latencies.begin(), r.latencies.end());
    std::string out = "{";
    out += "\"workload\": " + quoted(workload);
    out += ", \"seed\": " + std::to_string(opts.seed);
    out += ", \"smoke\": " + std::string(opts.smoke ? "true" : "false");
    out += ", \"traced\": " + std::string(trace ? "true" : "false");
    out += ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE);
    out += ", \"compiler\": " + quoted(PERFBENCH_COMPILER);
    out += ", \"nproc\": " +
           std::to_string(std::thread::hardware_concurrency());
    out += ", \"threads\": " + std::to_string(r.threads);
    out += ", \"wall\": {\"setup_s\": " + num(median(setupS)) +
           ", \"run_s\": " + num(runS) +
           ", \"teardown_s\": " + num(median(teardownS)) +
           ", \"setup_cycles\": " + std::to_string(setupS.size()) +
           ", \"peak_rss_mb\": " + num(peakRssMb()) + "}";
    out += ", \"sim\": {\"ticks\": " + std::to_string(r.simTicks) +
           ", \"ops\": " + std::to_string(r.ops) +
           ", \"payload_bytes\": " + std::to_string(r.payloadBytes) +
           ", \"lat_p50_ticks\": " +
           std::to_string(percentile(r.latencies, 0.50)) +
           ", \"lat_p99_ticks\": " +
           std::to_string(percentile(r.latencies, 0.99)) +
           ", \"lat_samples\": " + std::to_string(r.latencies.size()) +
           ", \"host_cpu_share\": " + num(r.hostCpuShare) + "}";
    out += ", \"counts\": {";
    bool first = true;
    for (const auto &[k, v] : r.counts) {
        out += (first ? "" : ", ") + quoted(k) + ": " + num(v);
        first = false;
    }
    out += "}, \"spans\": {";
    first = true;
    for (const auto &[name, t] : summarizeSpans()) {
        out += (first ? "" : ", ") + quoted(name) +
               ": {\"count\": " + std::to_string(t.count) +
               ", \"inclusive_ns\": " + std::to_string(t.inclusiveNs) +
               ", \"self_ns\": " + std::to_string(t.selfNs) + "}";
        first = false;
    }
    out += "}, \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(r.failed);
    out += ", \"errors\": [";
    for (std::size_t i = 0; i < r.errors.size(); ++i)
        out += (i ? ", " : "") + quoted(r.errors[i]);
    out += "]}";
    std::printf("%s\n", out.c_str());
    return 0;
}
