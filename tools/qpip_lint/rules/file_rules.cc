/**
 * @file
 * The per-file rule families (D1/D2/L1/W1/T1/Q1/H1), running over
 * the shared FileData so the waiver audit can account for their
 * suppressions.
 */

#include <algorithm>
#include <optional>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "../internal.hh"

namespace qpip::lint::detail {

namespace {

std::optional<Layer>
layerByName(const std::string &name)
{
    for (Layer l : {Layer::Sim, Layer::Net, Layer::Inet, Layer::Host,
                    Layer::Nic, Layer::Qpip, Layer::Apps, Layer::Top})
        if (name == layerName(l))
            return l;
    return std::nullopt;
}

} // namespace

// --- D1: nondeterminism sources -----------------------------------

void
ruleD1(Ctx &ctx)
{
    struct Banned
    {
        std::regex re;
        const char *what;
    };
    static const std::vector<Banned> banned = {
        {std::regex(R"(\bs?rand\s*\()"),
         "C library rand()/srand() is not replay-deterministic; use "
         "sim::Random"},
        {std::regex(R"(\brandom_device\b)"),
         "std::random_device draws entropy from the OS; use the "
         "seeded sim::Random"},
        {std::regex(R"(\b(system_clock|steady_clock|high_resolution_clock)\b)"),
         "wall-clock time source; use sim::Clock / Simulation time"},
        {std::regex(R"(\b(gettimeofday|clock_gettime)\b)"),
         "wall-clock time source; use sim::Clock / Simulation time"},
        {std::regex(R"(\bgetpid\s*\()"),
         "process id varies across runs; derive ids from the seed"},
        {std::regex(R"(\btime\s*\(\s*(nullptr|NULL|0)?\s*\))"),
         "time() reads the wall clock; use sim::Clock / Simulation "
         "time"},
        {std::regex(R"(\bmap\s*<[^,<>]*\*\s*,)"),
         "pointer-keyed map: addresses vary across runs, so key "
         "order (and any iteration) is nondeterministic"},
    };
    for (std::size_t i = 0; i < ctx.f.lx.code.size(); ++i) {
        for (const auto &b : banned) {
            if (std::regex_search(ctx.f.lx.code[i], b.re))
                ctx.add("D1", i, b.what);
        }
    }
}

// --- D2: iteration over unordered containers ----------------------

void
ruleD2(Ctx &ctx)
{
    const std::string &all = ctx.f.all;
    auto lineOf = [&](std::size_t off) { return ctx.f.lineOf(off); };

    // Pass 1: names of variables (and type aliases) whose type is an
    // unordered associative container.
    static const std::regex declRe(R"(\bunordered_(map|set)\s*<)");
    static const std::regex nameRe(
        R"(^\s*[&*]?\s*([A-Za-z_]\w*)\s*([;={(),]))");
    static const std::regex aliasRe(R"(\busing\s+([A-Za-z_]\w*)\s*=\s*$)");
    std::set<std::string> unorderedVars, unorderedAliases;
    for (auto it = std::sregex_iterator(all.begin(), all.end(), declRe);
         it != std::sregex_iterator(); ++it) {
        const std::size_t open =
            static_cast<std::size_t>(it->position()) + it->length() - 1;
        // "using Alias = std::unordered_map<...>;"
        const std::size_t pos = static_cast<std::size_t>(it->position());
        std::size_t bol = all.rfind('\n', pos);
        bol = bol == std::string::npos ? 0 : bol + 1;
        std::string before = all.substr(bol, pos - bol);
        // Strip a trailing "std::" qualifier so aliasRe can anchor.
        if (before.ends_with("std::"))
            before.erase(before.size() - 5);
        std::smatch am;
        if (std::regex_search(before, am, aliasRe)) {
            unorderedAliases.insert(am[1].str());
            continue;
        }
        const std::size_t end = skipAngles(all, open);
        if (end == std::string::npos)
            continue;
        std::smatch nm;
        const std::string after = all.substr(end, 160);
        if (std::regex_search(after, nm, nameRe))
            unorderedVars.insert(nm[1].str());
    }
    // Declarations through an alias: "Alias name;".
    for (const auto &alias : unorderedAliases) {
        const std::regex aliasDecl("\\b" + alias +
                                   R"(\s*[&*]?\s*([A-Za-z_]\w*)\s*[;={(),])");
        for (auto it =
                 std::sregex_iterator(all.begin(), all.end(), aliasDecl);
             it != std::sregex_iterator(); ++it)
            unorderedVars.insert((*it)[1].str());
    }
    if (unorderedVars.empty())
        return;

    auto lastComponent = [](std::string expr) {
        const auto dot = expr.find_last_of('.');
        if (dot != std::string::npos)
            expr = expr.substr(dot + 1);
        const auto arrow = expr.rfind("->");
        if (arrow != std::string::npos)
            expr = expr.substr(arrow + 2);
        return expr;
    };

    // Pass 2a: range-for over a tracked variable.
    static const std::regex rangeForRe(
        R"(\bfor\s*\([^;()]*:\s*([A-Za-z_][\w.]*(?:->[\w.]+)*)\s*\))");
    for (auto it =
             std::sregex_iterator(all.begin(), all.end(), rangeForRe);
         it != std::sregex_iterator(); ++it) {
        const std::string var = lastComponent((*it)[1].str());
        if (unorderedVars.count(var))
            ctx.add("D2", lineOf(static_cast<std::size_t>(it->position())),
                    "range-for over std::unordered container '" + var +
                        "': iteration order is hash/insertion "
                        "dependent and breaks same-seed replay");
    }

    // Pass 2b: iterator loops (x.begin() / cbegin / rbegin).
    static const std::regex beginRe(
        R"(([A-Za-z_][\w.]*(?:->[\w.]+)*)\s*\.\s*c?r?begin\s*\()");
    for (auto it = std::sregex_iterator(all.begin(), all.end(), beginRe);
         it != std::sregex_iterator(); ++it) {
        const std::string var = lastComponent((*it)[1].str());
        if (unorderedVars.count(var))
            ctx.add("D2", lineOf(static_cast<std::size_t>(it->position())),
                    "iterator walk over std::unordered container '" +
                        var + "': order is hash/insertion dependent "
                              "and breaks same-seed replay");
    }
}

// --- L1: include layering -----------------------------------------

void
ruleL1(Ctx &ctx)
{
    static const std::regex incRe(
        R"(^\s*#\s*include\s+"([A-Za-z_0-9]+)/)");
    for (std::size_t i = 0; i < ctx.f.lx.raw.size(); ++i) {
        // String-literal bodies are blanked in the code view, so the
        // include path has to come from the raw line.
        std::smatch m;
        if (!std::regex_search(ctx.f.lx.raw[i], m, incRe))
            continue;
        const auto inc = layerByName(m[1].str());
        if (!inc)
            continue; // system-ish or unknown prefix: not layered
        if (layerRank(*inc) > layerRank(ctx.f.layer))
            ctx.add("L1", i,
                    std::string("layering violation: ") +
                        layerName(ctx.f.layer) + " must not include " +
                        layerName(*inc) + " (DAG: sim <- net <- inet "
                        "<- host <- nic <- qpip <- apps <- "
                        "{tests,bench,examples})");
    }

    // The transport engines are the NIC's private internals: even
    // layers above nic in the DAG (qpip, apps, tests, bench) must
    // not reach into them — the verbs surface is the public seam.
    static const std::regex privRe(
        R"(^\s*#\s*include\s+"nic/transport/)");
    for (std::size_t i = 0; i < ctx.f.lx.raw.size(); ++i) {
        if (!std::regex_search(ctx.f.lx.raw[i], privRe))
            continue;
        if (ctx.f.layer == Layer::Nic)
            continue;
        ctx.add("L1", i,
                "layering violation: nic/transport/ headers are "
                "private to the nic layer; drive transports through "
                "the qpip verbs surface");
    }
}

// --- W1: wire-format hygiene --------------------------------------

void
ruleW1(Ctx &ctx)
{
    static const std::regex castRe(R"(\breinterpret_cast\b)");
    static const std::regex memcpyRe(R"(\bmemcpy\s*\()");
    for (std::size_t i = 0; i < ctx.f.lx.code.size(); ++i) {
        if (std::regex_search(ctx.f.lx.code[i], castRe))
            ctx.add("W1", i,
                    "reinterpret_cast near wire data: serialize "
                    "through net::Serializer / inet::checksum "
                    "byte-order helpers instead");
        if (std::regex_search(ctx.f.lx.code[i], memcpyRe))
            ctx.add("W1", i,
                    "raw memcpy: wire I/O must go through "
                    "net::Serializer / inet::checksum byte-order "
                    "helpers");
    }
}

// --- T1: threading primitives outside the sim layer ---------------

/**
 * The parallel engine (src/sim) is the one place allowed to spawn
 * threads and synchronize: every other layer runs single-threaded
 * within its partition, and ad-hoc locking there would hide
 * scheduling nondeterminism the engine's barrier protocol exists to
 * prevent. Model-level concurrency belongs in events, not threads.
 */
void
ruleT1(Ctx &ctx)
{
    static const std::regex incRe(
        R"(^\s*#\s*include\s*<(thread|mutex|shared_mutex|atomic|)"
        R"(condition_variable|stop_token|barrier|latch|semaphore|)"
        R"(future)>)");
    static const std::regex useRe(
        R"(\bstd\s*::\s*(thread|jthread|mutex|recursive_mutex|)"
        R"(timed_mutex|recursive_timed_mutex|shared_mutex|)"
        R"(shared_timed_mutex|condition_variable|)"
        R"(condition_variable_any|atomic\w*|lock_guard|unique_lock|)"
        R"(scoped_lock|shared_lock|promise|future|async|call_once|)"
        R"(once_flag)\b)");
    static const std::regex tlsRe(R"(\bthread_local\b)");
    for (std::size_t i = 0; i < ctx.f.lx.code.size(); ++i) {
        const std::string &l = ctx.f.lx.code[i];
        std::smatch m;
        if (std::regex_search(l, m, incRe)) {
            ctx.add("T1", i,
                    "#include <" + m[1].str() +
                        "> outside src/sim: threading primitives "
                        "live in the parallel engine; partitioned "
                        "code is single-threaded");
        } else if (std::regex_search(l, m, useRe)) {
            ctx.add("T1", i,
                    "std::" + m[1].str() +
                        " outside src/sim: the parallel engine owns "
                        "all synchronization; model concurrency with "
                        "events, not threads");
        } else if (std::regex_search(l, tlsRe)) {
            ctx.add("T1", i,
                    "thread_local outside src/sim: per-thread state "
                    "in model code hides scheduling dependence; bind "
                    "state to the SimObject or partition instead");
        }
    }
}

// --- Q1: std::deque in src/ ----------------------------------------

/**
 * Most queues in the model belong to one QP, connection or device,
 * and thousands of them sit empty for a whole run. libstdc++ gives
 * even an empty std::deque its map and first node; sim::RingFifo
 * allocates on the first push.
 */
void
ruleQ1(Ctx &ctx)
{
    static const std::regex re(R"(\bstd\s*::\s*deque\b)");
    for (std::size_t i = 0; i < ctx.f.lx.code.size(); ++i) {
        if (std::regex_search(ctx.f.lx.code[i], re))
            ctx.add("Q1", i,
                    "std::deque: an empty libstdc++ deque allocates "
                    "about 600 B; use sim::RingFifo, which allocates "
                    "on the first push");
    }
}

// --- H1: header guard style ---------------------------------------

void
ruleH1(Ctx &ctx)
{
    for (const auto &l : ctx.f.lx.code)
        if (l.find("#pragma once") != std::string::npos)
            return;
    ctx.sink.diags.push_back(Diagnostic{
        "H1", ctx.f.path, 1,
        "header must use '#pragma once' (no #ifndef guards)"});
}

} // namespace qpip::lint::detail
