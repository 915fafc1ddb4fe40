/**
 * @file
 * Shared harness for the paper-reproduction benches. Each bench binary
 * computes its rows by running full-system simulations, prints a
 * paper-vs-measured table, and registers one google-benchmark entry
 * per row (manual time = simulated duration, plus custom counters) so
 * the standard benchmark tooling/JSON output works too.
 */

#pragma once

// The standalone record-only benches (simspeed, qpscale, msgrate)
// define QPIP_BENCH_STANDALONE and link no benchmark library; they
// get only the knob/best-of-N/stat/record-report helpers below.
#ifndef QPIP_BENCH_STANDALONE
#include <benchmark/benchmark.h>
#endif

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/stat_registry.hh"

namespace qpip::bench {

/** Positive integer env knob, or @p fallback when unset/invalid. */
inline std::size_t
envKnob(const char *name, std::size_t fallback)
{
    if (const char *env = std::getenv(name)) {
        const long v = std::atol(env);
        if (v > 0)
            return static_cast<std::size_t>(v);
    }
    return fallback;
}

/**
 * Interleaved best-of-N repetition for the record-only benches. Runs
 * @p run(i) for every point i once per rep, rep-major (rep 0 of every
 * point, then rep 1, ...), so page-cache and allocator warm-up is
 * spread evenly across the sweep instead of flattering whichever
 * point ran last. @p same_sim compares the *simulated* fields of two
 * reps of one point — they must replay identically, and a mismatch
 * aborts the bench (exit 1) because a nondeterministic simulation
 * invalidates every recorded number. @p fold_wall merges a later
 * rep's wall-clock columns into the kept point (typically min);
 * @p label names a point for the abort diagnostic.
 */
template <typename Run, typename SameSim, typename FoldWall,
          typename Label>
auto
bestOfN(std::size_t n_points, std::size_t reps, Run &&run,
        SameSim &&same_sim, FoldWall &&fold_wall, Label &&label)
    -> std::vector<decltype(run(std::size_t{0}))>
{
    std::vector<decltype(run(std::size_t{0}))> points(n_points);
    for (std::size_t rep = 0; rep < reps; ++rep) {
        for (std::size_t i = 0; i < n_points; ++i) {
            auto p = run(i);
            if (rep == 0) {
                points[i] = std::move(p);
                continue;
            }
            if (!same_sim(points[i], p)) {
                std::fprintf(stderr,
                             "nondeterministic point %s across reps\n",
                             label(p).c_str());
                std::exit(1);
            }
            fold_wall(points[i], p);
        }
    }
    return points;
}

/** The value of a record bench's --out=<path> flag, or @p fallback. */
inline std::string
outPath(int argc, char **argv, const char *fallback)
{
    std::string out = fallback;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--out=", 6) == 0)
            out = argv[i] + 6;
    }
    return out;
}

/** One `"key": value` line of a record report; the value is raw JSON. */
using JsonField = std::pair<std::string, std::string>;

/**
 * Write a record bench's JSON report to @p path, or exit 1 if it
 * cannot be opened. The layout, one field or row per line:
 *
 *     {"benchmark": @p name, @p params..., "hostCores": <cores>,
 *      @p list_key: [@p rows...], @p tail...}
 *
 * hostCores is the machine context a wall-clock or thread-scaling
 * number only makes sense against. Each row is a raw JSON object.
 */
inline void
writeRecord(const std::string &path, const char *name,
            const std::vector<JsonField> &params, const char *list_key,
            const std::vector<std::string> &rows,
            const std::vector<JsonField> &tail = {})
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        std::exit(1);
    }
    std::fprintf(f, "{\n  \"benchmark\": \"%s\",\n", name);
    for (const auto &[key, value] : params)
        std::fprintf(f, "  \"%s\": %s,\n", key.c_str(), value.c_str());
    std::fprintf(f, "  \"hostCores\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"%s\": [\n", list_key);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        std::fprintf(f, "    %s%s\n", rows[i].c_str(),
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]");
    for (const auto &[key, value] : tail)
        std::fprintf(f, ",\n  \"%s\": %s", key.c_str(), value.c_str());
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", path.c_str());
}

/** Table-row suffix flagging a point whose run did not complete. */
inline const char *
incompleteMark(bool completed)
{
    return completed ? "" : "  [INCOMPLETE]";
}

/** A record bench's exit code: 0 iff every point completed. */
template <typename Points>
int
recordExit(const Points &points)
{
    for (const auto &p : points) {
        if (!p.completed)
            return 1;
    }
    return 0;
}

/** SampleStat mean by registry path (0 when absent or empty). */
inline double
statMean(const sim::StatRegistry &stats, const std::string &path)
{
    const sim::SampleStat *s = stats.sample(path);
    return (s != nullptr && s->count() > 0) ? s->mean() : 0.0;
}

/** SampleStat sample count by registry path (0 when absent). */
inline std::uint64_t
statCount(const sim::StatRegistry &stats, const std::string &path)
{
    const sim::SampleStat *s = stats.sample(path);
    return s != nullptr ? s->count() : 0;
}

/** One result row: a bar in a figure or a line in a table. */
struct Row
{
    std::string name;
    /** The paper's reported value (NaN if the paper gives no number). */
    double paper = 0.0;
    bool hasPaper = true;
    double measured = 0.0;
    std::string unit;
    /** Simulated duration backing the measurement (for benchmark). */
    double simSeconds = 1e-3;
    std::map<std::string, double> counters;
};

inline void
printTable(const std::string &title, const std::vector<Row> &rows)
{
    std::printf("\n=== %s ===\n", title.c_str());
    std::printf("%-34s %12s %12s %8s\n", "case", "paper", "measured",
                "unit");
    for (const auto &r : rows) {
        if (r.hasPaper) {
            std::printf("%-34s %12.2f %12.2f %8s", r.name.c_str(),
                        r.paper, r.measured, r.unit.c_str());
        } else {
            std::printf("%-34s %12s %12.2f %8s", r.name.c_str(), "-",
                        r.measured, r.unit.c_str());
        }
        for (const auto &[k, v] : r.counters)
            std::printf("  %s=%.3g", k.c_str(), v);
        std::printf("\n");
    }
    std::printf("\n");
}

#ifndef QPIP_BENCH_STANDALONE

inline void
registerRows(const std::vector<Row> &rows)
{
    for (const auto &row : rows) {
        benchmark::RegisterBenchmark(
            row.name.c_str(),
            [row](benchmark::State &state) {
                for (auto _ : state)
                    state.SetIterationTime(row.simSeconds);
                state.counters["measured_" + row.unit] = row.measured;
                if (row.hasPaper)
                    state.counters["paper_" + row.unit] = row.paper;
                for (const auto &[k, v] : row.counters)
                    state.counters[k] = v;
            })
            ->Iterations(1)
            ->UseManualTime();
    }
}

/** Standard main body for a bench binary. */
inline int
benchMain(int argc, char **argv, const std::string &title,
          std::vector<Row> (*build)())
{
    auto rows = build();
    printTable(title, rows);
    registerRows(rows);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

#endif // QPIP_BENCH_STANDALONE

} // namespace qpip::bench

#ifndef QPIP_BENCH_STANDALONE
#define QPIP_BENCH_MAIN(title, build)                                  \
    int main(int argc, char **argv)                                    \
    {                                                                   \
        return qpip::bench::benchMain(argc, argv, title, build);        \
    }
#endif
