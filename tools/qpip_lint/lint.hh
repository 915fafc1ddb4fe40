/**
 * @file
 * qpip-lint: a lightweight static-analysis pass over the project's
 * own sources. No libclang — a small lexer strips comments and
 * string literals (literal bodies are kept to the side for the
 * path-literal rules), then rules run in two passes: pass 1 builds a
 * project-wide index over every file handed in (stat-path literals,
 * serialize/parse field sequences, waiver sites), pass 2 runs the
 * rule families against it.
 *
 * Per-file rule families (as in v1):
 *
 *   D1  no nondeterminism sources in src/ (rand, random_device, wall
 *       clocks, argless time(), pointer-keyed maps);
 *   D2  no iteration over std::unordered_{map,set} in src/;
 *   L1  include layering must follow the DAG
 *       sim <- net <- inet <- host <- nic <- qpip <- apps
 *       <- {tests, bench, examples};
 *   W1  wire-format hygiene: no reinterpret_cast or memcpy outside
 *       the designated serializers (inet/checksum.*, net/serialize.*);
 *   T1  threading primitives (std::thread/mutex/atomic/..., the
 *       matching headers, thread_local) only under src/sim — the
 *       parallel engine owns all synchronization;
 *   Q1  no std::deque in src/: an empty libstdc++ deque allocates
 *       about 600 B, so per-object queues use sim::RingFifo;
 *   H1  every header uses '#pragma once'.
 *
 * Project-wide (cross-file, index-driven) rule families (v2):
 *
 *   S1  stat-path registry: every registration literal handed to
 *       StatRegistry/StatGroup::add or SimObject::regStat must
 *       follow the dotted-path grammar and be unique per
 *       registration scope, and every stat lookup/glob literal in
 *       src/, tests/ and bench/ must resolve against the registered
 *       set (a typo'd path otherwise silently reads 0 at runtime);
 *   W2  wire-format pairing: each serializeXxx in net/serialize must
 *       have a matching parseXxx whose field get sequence mirrors the
 *       put sequence (same order, same widths, branch for branch);
 *   T2  partition discipline: outside src/sim, no mutable static /
 *       namespace-scope state (it is shared across partitions by
 *       construction) and no direct scheduling into another
 *       SimObject's event queue — cross-partition traffic goes
 *       through the Link/Mailbox APIs;
 *   E1  no by-reference captures ([&], [&x]) in closures passed to
 *       schedule()/scheduleIn()/exec()/scheduleTimer(): the closure
 *       outlives the enclosing frame, so such captures are the PR 5
 *       use-after-free class.
 *
 *   A1  stale-waiver audit: a 'qpip-lint:' waiver whose rule no
 *       longer fires on the waived line is itself a hard error, as is
 *       a waiver token that names no known rule.
 *
 * A violation line may carry a waiver comment
 *   // qpip-lint: <token>-ok(<reason>)
 * with a non-empty reason; the token names the rule (see
 * waiverToken()). Fixture files outside src/ can opt into a layer
 * with '// qpip-lint-layer: <name>'; a fixture standing in for a
 * wire serializer module marks itself with '// qpip-lint-wire-file'.
 */

#pragma once

#include <set>
#include <string>
#include <vector>

namespace qpip::lint {

/** One finding. Formatted as "<rule> <file>:<line>: <message>". */
struct Diagnostic
{
    std::string rule;
    std::string file;
    int line = 0;
    std::string message;

    std::string format() const;
};

/** Layers of the include DAG, bottom (most fundamental) first. */
enum class Layer {
    Sim,
    Net,
    Inet,
    Host,
    Nic,
    Qpip,
    Apps,
    /** tests/, bench/, examples/, tools/: may include anything. */
    Top,
};

/** DAG rank: a file may only include layers of rank <= its own. */
int layerRank(Layer l);

/** Layer name as spelled in include paths ("sim", "inet", ...). */
const char *layerName(Layer l);

/**
 * Classify @p path by its directory ("src/inet/..." -> Inet;
 * tests/bench/examples/tools -> Top). Unrecognized paths are Top.
 */
Layer classifyPath(const std::string &path);

/** Waiver token for a rule id ("D2" -> "unordered-iter-ok"). */
const char *waiverToken(const std::string &rule);

/** Rule id for a waiver token ("unordered-iter-ok" -> "D2"). */
const char *ruleForWaiverToken(const std::string &token);

/**
 * Lint one file with the per-file rule families only (D1/D2/L1/W1/
 * T1/Q1/H1) — the v1 behaviour, kept for single-file callers and the
 * fixture tests. @p path is used for diagnostics and for layer /
 * allowlist classification; a '// qpip-lint-layer: <name>' directive
 * in @p contents overrides the path-derived layer. Diagnostics come
 * back in line order.
 */
std::vector<Diagnostic> lintFile(const std::string &path,
                                 const std::string &contents);

/** Read @p path and lintFile() it. IO failure yields an IO finding. */
std::vector<Diagnostic> lintPath(const std::string &path);

// ---------------------------------------------------------------------
// Project-wide analysis (v2)
// ---------------------------------------------------------------------

/** One source file handed to lintProject (already read). */
struct SourceFile
{
    std::string path; ///< as reported in diagnostics
    std::string contents;
};

struct ProjectOptions
{
    /** Run the per-file families (D1/D2/L1/W1/T1/Q1/H1). */
    bool fileRules = true;
    /** Run the cross-file families (S1/W2/T2/E1). */
    bool projectRules = true;
    /** Flag stale waivers (A1). Only audits tokens of enabled rules. */
    bool auditWaivers = true;
    /**
     * When non-empty, the index is still built over every file but
     * diagnostics are only reported for paths in this set (--diff).
     */
    std::set<std::string> reportOnly;
};

/**
 * The two-pass project run: lex everything, build the shared index,
 * run every enabled rule family, then audit waivers. Diagnostics are
 * ordered by file, then line, then rule.
 */
std::vector<Diagnostic> lintProject(const std::vector<SourceFile> &files,
                                    const ProjectOptions &opts = {});

/** Read each path (relative paths resolved against @p root). */
std::vector<SourceFile> readSources(const std::string &root,
                                    const std::vector<std::string> &paths);

/**
 * What pass 1 knows — exposed so tests can assert the index covers
 * the real tree (every registered stat leaf, every wire pair).
 */
struct IndexSummary
{
    /** Full dotted literals registered in one piece. */
    std::set<std::string> statLeafPaths;
    /** Every path segment seen at any registration site. */
    std::set<std::string> statSegments;
    /** serializeXxx functions with a field-op body, by name. */
    std::set<std::string> serializers;
    /** parseXxx functions with a field-op body, by name. */
    std::set<std::string> parsers;
};

IndexSummary summarizeIndex(const std::vector<SourceFile> &files);

// ---------------------------------------------------------------------
// Mechanical fixes (--fix)
// ---------------------------------------------------------------------

/**
 * Apply the mechanical fixes for @p diags to @p contents: H1 (insert
 * '#pragma once' before the first code line) and A1 (strip the stale
 * waiver, dropping the comment line when nothing else is on it).
 * Returns the rewritten text, or an empty optional-like flag via
 * @p changed when no fix applied.
 */
std::string applyFixes(const std::string &contents,
                       const std::vector<Diagnostic> &diags,
                       bool &changed);

// ---------------------------------------------------------------------
// File discovery
// ---------------------------------------------------------------------

/**
 * Collect the tree's lintable files under @p root: all .cc/.hh under
 * src/, plus headers and sources under tests/, bench/, examples/ and
 * tools/. tests/lint_fixtures/ is excluded — those files exist to
 * fail. Paths come back sorted, relative to @p root.
 */
std::vector<std::string> collectTree(const std::string &root);

/**
 * File list from a CMAKE_EXPORT_COMPILE_COMMANDS database: every
 * "file" entry, absolute. Minimal JSON scan, tolerant of formatting.
 */
std::vector<std::string> filesFromCompileCommands(const std::string &path);

} // namespace qpip::lint
