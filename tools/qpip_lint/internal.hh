/**
 * @file
 * qpip-lint internals shared between the driver (lint.cc), the index
 * builder (index.cc) and the rule families under rules/. Not part of
 * the public surface — tests and the CLI go through lint.hh.
 */

#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "lint.hh"

namespace qpip::lint::detail {

/**
 * The lexed view of one file: per physical line, the code text with
 * comments removed and string/char literal bodies blanked (the
 * delimiting quotes survive as "" so call shapes stay parseable),
 * the comment text (for waiver directives), and the literal bodies
 * in source order (for the path-literal rules).
 */
struct Lexed
{
    /** Untouched physical lines (needed for #include paths). */
    std::vector<std::string> raw;
    std::vector<std::string> code;
    std::vector<std::string> comments;
    /** Per line: the bodies of its string literals, in order. */
    std::vector<std::vector<std::string>> strings;
};

Lexed lex(const std::string &text);

/**
 * Per line: waiver tokens in effect -> the physical line index of
 * the comment that granted them (a trailing comment waives its own
 * line; a comment-only line waives the next code line, chaining
 * through blank/comment lines).
 */
using WaiverMap = std::vector<std::map<std::string, int>>;

WaiverMap collectWaivers(const Lexed &lx);

/** One lexed file plus everything derived from it. */
struct FileData
{
    std::string path;
    Layer layer = Layer::Top;
    bool wireFile = false; ///< net/serialize.* or fixture directive
    Lexed lx;
    WaiverMap waivers;
    /** Code text joined with '\n', plus each line's start offset. */
    std::string all;
    std::vector<std::size_t> starts;

    std::size_t lineOf(std::size_t offset) const;
};

FileData makeFileData(const std::string &path,
                      const std::string &contents);

bool isHeaderPath(const std::string &path);
bool wireAllowlisted(const std::string &path);

/**
 * Diagnostic sink with waiver accounting: suppressions are recorded
 * as (file, waiver-origin-line, token) so the stale-waiver audit can
 * tell which waivers earned their keep.
 */
struct Sink
{
    std::vector<Diagnostic> diags;
    /** Waiver sites that suppressed at least one finding. */
    std::set<std::pair<const FileData *, int>> usedWaivers;

    void add(const FileData &f, const std::string &rule,
             std::size_t line_idx, std::string msg);
};

/** Per-file rule context (the v1 shape, now over FileData + Sink). */
struct Ctx
{
    const FileData &f;
    Sink &sink;

    void
    add(const std::string &rule, std::size_t line_idx, std::string msg)
    {
        sink.add(f, rule, line_idx, std::move(msg));
    }
};

// --- per-file rule families (rules/file_rules.cc) -------------------

void ruleD1(Ctx &ctx);
void ruleD2(Ctx &ctx);
void ruleL1(Ctx &ctx);
void ruleW1(Ctx &ctx);
void ruleT1(Ctx &ctx);
void ruleQ1(Ctx &ctx);
void ruleH1(Ctx &ctx);

// --- the shared project index (index.cc) ----------------------------

/** One stat registration site. */
struct StatAddSite
{
    const FileData *file = nullptr;
    std::size_t line = 0;
    /** Receiver spelling ("group_", "stats_", "reg", "" for regStat). */
    std::string receiver;
    /** Literal fragments of the first argument, in order. */
    std::vector<std::string> literals;
    /** True when the first argument is one literal and nothing else. */
    bool wholeLiteral = false;
    /** Identifiers called inside the first argument (tag functions). */
    std::vector<std::string> calledFns;
    /** Brace-depth-zero scope ordinal (for duplicate detection). */
    int scopeId = 0;
};

/** One stat lookup site (counter/counterValue/sample/.../match). */
struct StatLookupSite
{
    const FileData *file = nullptr;
    std::size_t line = 0;
    std::string kind;
    std::vector<std::string> literals;
    bool wholeLiteral = false;
    /** The argument expression ends with a string literal. */
    bool endsWithLiteral = false;
};

/** A serializeXxx or parseXxx function body's canonical field ops. */
struct WireFn
{
    const FileData *file = nullptr;
    std::size_t line = 0;
    std::string name; ///< suffix after serialize/parse
    /** Canonical tokens: u8,u16,u32,u64,bytes,pad,case:<Label>. */
    std::vector<std::string> ops;
};

struct ProjectIndex
{
    std::vector<StatAddSite> statAdds;
    std::vector<StatLookupSite> statLookups;
    /** Full dotted literals registered in one piece. */
    std::set<std::string> statLeafPaths;
    /** Every complete segment seen at a registration site. */
    std::set<std::string> statSegments;
    /** serialize<name> / parse<name> with field ops, by name suffix. */
    std::map<std::string, WireFn> serializers;
    std::map<std::string, WireFn> parsers;
};

ProjectIndex buildIndex(const std::vector<FileData> &files);

// --- project-wide rule families (rules/*.cc) ------------------------

void ruleS1(const ProjectIndex &ix, Sink &sink);
void ruleW2(const ProjectIndex &ix, Sink &sink);
void ruleT2(const FileData &f, Sink &sink);
void ruleE1(const FileData &f, Sink &sink);

/** Skip a balanced <...> starting at @p pos (which must be '<'). */
std::size_t skipAngles(const std::string &s, std::size_t pos);

/** Skip a balanced (...) starting at @p pos (which must be '('). */
std::size_t skipParens(const std::string &s, std::size_t pos);

/** '*' matches any run, '?' exactly one (mirrors statPatternMatch). */
bool globMatch(const std::string &pattern, const std::string &text);

} // namespace qpip::lint::detail
