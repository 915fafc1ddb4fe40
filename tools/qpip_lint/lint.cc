#include "lint.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <optional>
#include <regex>
#include <sstream>

#include "internal.hh"

namespace qpip::lint {

namespace fs = std::filesystem;

using detail::Ctx;
using detail::FileData;
using detail::Lexed;
using detail::Sink;
using detail::WaiverMap;

std::string
Diagnostic::format() const
{
    std::ostringstream os;
    os << rule << ' ' << file << ':' << line << ": " << message;
    return os.str();
}

int
layerRank(Layer l)
{
    return static_cast<int>(l);
}

const char *
layerName(Layer l)
{
    switch (l) {
      case Layer::Sim: return "sim";
      case Layer::Net: return "net";
      case Layer::Inet: return "inet";
      case Layer::Host: return "host";
      case Layer::Nic: return "nic";
      case Layer::Qpip: return "qpip";
      case Layer::Apps: return "apps";
      case Layer::Top: return "top";
    }
    return "?";
}

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

std::string
normalize(const std::string &path)
{
    std::string p = path;
    std::replace(p.begin(), p.end(), '\\', '/');
    return p;
}

} // namespace

Layer
classifyPath(const std::string &path)
{
    const std::string p = normalize(path);
    for (Layer l : {Layer::Sim, Layer::Net, Layer::Inet, Layer::Host,
                    Layer::Nic, Layer::Qpip, Layer::Apps}) {
        const std::string needle =
            std::string("src/") + layerName(l) + "/";
        if (p.find(needle) != std::string::npos)
            return l;
    }
    return Layer::Top;
}

namespace {

struct RuleToken
{
    const char *rule;
    const char *token;
};

constexpr RuleToken ruleTokens[] = {
    {"D1", "nondet-ok"},      {"D2", "unordered-iter-ok"},
    {"L1", "layer-ok"},       {"W1", "wire-ok"},
    {"T1", "thread-ok"},      {"S1", "stat-path-ok"},
    {"W2", "wire-pair-ok"},   {"T2", "partition-ok"},
    {"E1", "ref-capture-ok"}, {"Q1", "deque-ok"},
};

} // namespace

const char *
waiverToken(const std::string &rule)
{
    for (const auto &rt : ruleTokens)
        if (rule == rt.rule)
            return rt.token;
    return "";
}

const char *
ruleForWaiverToken(const std::string &token)
{
    for (const auto &rt : ruleTokens)
        if (token == rt.token)
            return rt.rule;
    return "";
}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

namespace detail {

Lexed
lex(const std::string &text)
{
    Lexed out;
    {
        std::string line;
        for (const char c : text) {
            if (c == '\n') {
                out.raw.push_back(std::move(line));
                line.clear();
            } else {
                line += c;
            }
        }
        out.raw.push_back(std::move(line));
    }
    std::string code, comment, literal;
    std::vector<std::string> lits;
    enum class St { Code, Str, Chr, Line, Block } st = St::Code;

    auto flush = [&] {
        out.code.push_back(code);
        out.comments.push_back(comment);
        out.strings.push_back(lits);
        code.clear();
        comment.clear();
        lits.clear();
    };

    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        const char n = i + 1 < text.size() ? text[i + 1] : '\0';
        if (c == '\n') {
            if (st == St::Line)
                st = St::Code;
            if (st == St::Str) {
                // Unterminated on this line (multi-line raw strings
                // are not used in this codebase): close it out.
                lits.push_back(literal);
                literal.clear();
                st = St::Code;
            }
            flush();
            continue;
        }
        switch (st) {
          case St::Code:
            if (c == '/' && n == '/') {
                st = St::Line;
                ++i;
            } else if (c == '/' && n == '*') {
                st = St::Block;
                ++i;
            } else if (c == '"') {
                st = St::Str;
                literal.clear();
                code += '"';
            } else if (c == '\'') {
                st = St::Chr;
                code += '\'';
            } else {
                code += c;
            }
            break;
          case St::Str:
            if (c == '\\' && n != '\0') {
                literal += c;
                literal += n;
                ++i;
            } else if (c == '"') {
                st = St::Code;
                code += '"';
                lits.push_back(literal);
                literal.clear();
            } else {
                literal += c;
            }
            break;
          case St::Chr:
            if (c == '\\' && n != '\0') {
                ++i;
            } else if (c == '\'') {
                st = St::Code;
                code += '\'';
            }
            break;
          case St::Line:
            comment += c;
            break;
          case St::Block:
            if (c == '*' && n == '/') {
                st = St::Code;
                ++i;
            } else {
                comment += c;
            }
            break;
        }
    }
    flush();
    return out;
}

WaiverMap
collectWaivers(const Lexed &lx)
{
    static const std::regex re(
        R"(qpip-lint:\s*([a-z][a-z-]*-ok)\(\s*[^)\s][^)]*\))");
    WaiverMap out(lx.comments.size());
    auto blankCode = [&](std::size_t i) {
        return lx.code[i].find_first_not_of(" \t") == std::string::npos;
    };
    for (std::size_t i = 0; i < lx.comments.size(); ++i) {
        auto begin = std::sregex_iterator(lx.comments[i].begin(),
                                          lx.comments[i].end(), re);
        for (auto it = begin; it != std::sregex_iterator(); ++it)
            out[i].emplace((*it)[1].str(), static_cast<int>(i));
    }
    for (std::size_t i = 0; i + 1 < out.size(); ++i) {
        if (!out[i].empty() && blankCode(i))
            out[i + 1].insert(out[i].begin(), out[i].end());
    }
    return out;
}

std::size_t
FileData::lineOf(std::size_t offset) const
{
    auto it = std::upper_bound(starts.begin(), starts.end(), offset);
    return static_cast<std::size_t>(it - starts.begin()) - 1;
}

namespace {

std::optional<Layer>
layerDirective(const Lexed &lx)
{
    static const std::regex re(R"(qpip-lint-layer:\s*([a-z]+))");
    for (const auto &c : lx.comments) {
        std::smatch m;
        if (std::regex_search(c, m, re))
            return layerByName(m[1].str());
    }
    return std::nullopt;
}

bool
wireDirective(const Lexed &lx)
{
    for (const auto &c : lx.comments)
        if (c.find("qpip-lint-wire-file") != std::string::npos)
            return true;
    return false;
}

} // namespace

bool
isHeaderPath(const std::string &path)
{
    return path.ends_with(".hh") || path.ends_with(".h");
}

bool
wireAllowlisted(const std::string &path)
{
    const std::string p = normalize(path);
    return p.find("inet/checksum.") != std::string::npos ||
           p.find("net/serialize.") != std::string::npos;
}

FileData
makeFileData(const std::string &path, const std::string &contents)
{
    FileData f;
    f.path = path;
    f.lx = lex(contents);
    f.waivers = collectWaivers(f.lx);
    f.layer = layerDirective(f.lx).value_or(classifyPath(path));
    f.wireFile =
        normalize(path).find("net/serialize.") != std::string::npos ||
        wireDirective(f.lx);
    for (const auto &l : f.lx.code) {
        f.starts.push_back(f.all.size());
        f.all += l;
        f.all += '\n';
    }
    return f;
}

void
Sink::add(const FileData &f, const std::string &rule,
          std::size_t line_idx, std::string msg)
{
    if (line_idx < f.waivers.size()) {
        auto it = f.waivers[line_idx].find(waiverToken(rule));
        if (it != f.waivers[line_idx].end()) {
            usedWaivers.emplace(&f, it->second);
            return;
        }
    }
    diags.push_back(Diagnostic{rule, f.path,
                               static_cast<int>(line_idx) + 1,
                               std::move(msg)});
}

std::size_t
skipAngles(const std::string &s, std::size_t pos)
{
    int depth = 0;
    for (; pos < s.size(); ++pos) {
        if (s[pos] == '<')
            ++depth;
        else if (s[pos] == '>' && --depth == 0)
            return pos + 1;
    }
    return std::string::npos;
}

std::size_t
skipParens(const std::string &s, std::size_t pos)
{
    int depth = 0;
    for (; pos < s.size(); ++pos) {
        if (s[pos] == '(')
            ++depth;
        else if (s[pos] == ')' && --depth == 0)
            return pos + 1;
    }
    return std::string::npos;
}

bool
globMatch(const std::string &pattern, const std::string &text)
{
    std::size_t p = 0, t = 0;
    std::size_t star = std::string::npos, mark = 0;
    while (t < text.size()) {
        if (p < pattern.size() &&
            (pattern[p] == '?' || pattern[p] == text[t])) {
            ++p;
            ++t;
        } else if (p < pattern.size() && pattern[p] == '*') {
            star = p++;
            mark = t;
        } else if (star != std::string::npos) {
            p = star + 1;
            t = ++mark;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*')
        ++p;
    return p == pattern.size();
}

} // namespace detail

// ---------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------

namespace {

void
sortDiags(std::vector<Diagnostic> &diags)
{
    std::stable_sort(diags.begin(), diags.end(),
                     [](const Diagnostic &a, const Diagnostic &b) {
                         if (a.file != b.file)
                             return a.file < b.file;
                         if (a.line != b.line)
                             return a.line < b.line;
                         return a.rule < b.rule;
                     });
}

void
runFileRules(const FileData &f, Sink &sink)
{
    Ctx ctx{f, sink};
    if (f.layer != Layer::Top) {
        detail::ruleD1(ctx);
        detail::ruleD2(ctx);
        if (!detail::wireAllowlisted(f.path))
            detail::ruleW1(ctx);
        if (f.layer != Layer::Sim)
            detail::ruleT1(ctx);
        detail::ruleQ1(ctx);
    }
    detail::ruleL1(ctx);
    if (detail::isHeaderPath(f.path))
        detail::ruleH1(ctx);
}

/**
 * A1: every waiver comment must have suppressed at least one finding
 * of an enabled rule during this run.
 */
void
auditWaivers(const std::vector<FileData> &files, Sink &sink,
             const ProjectOptions &opts)
{
    static const char *projectRuleIds[] = {"S1", "W2", "T2", "E1"};
    auto ruleEnabled = [&](const std::string &rule) {
        for (const char *r : projectRuleIds)
            if (rule == r)
                return opts.projectRules;
        return opts.fileRules;
    };
    for (const auto &f : files) {
        // Collect distinct waiver sites: (origin line, token).
        std::set<std::pair<int, std::string>> sites;
        for (const auto &perLine : f.waivers)
            for (const auto &[token, origin] : perLine)
                sites.emplace(origin, token);
        for (const auto &[origin, token] : sites) {
            const std::string rule = ruleForWaiverToken(token);
            if (rule.empty()) {
                sink.diags.push_back(Diagnostic{
                    "A1", f.path, origin + 1,
                    "unknown waiver token '" + token +
                        "': no rule uses it (see waiverToken())"});
                continue;
            }
            if (!ruleEnabled(rule))
                continue;
            if (!sink.usedWaivers.count({&f, origin})) {
                sink.diags.push_back(Diagnostic{
                    "A1", f.path, origin + 1,
                    "stale waiver '" + token + "': rule " + rule +
                        " no longer fires on the waived line — "
                        "delete the waiver (or fix the regression "
                        "that was hiding behind it)"});
            }
        }
    }
}

} // namespace

std::vector<Diagnostic>
lintProject(const std::vector<SourceFile> &files,
            const ProjectOptions &opts)
{
    std::vector<FileData> data;
    data.reserve(files.size());
    for (const auto &sf : files)
        data.push_back(detail::makeFileData(sf.path, sf.contents));

    Sink sink;
    if (opts.fileRules)
        for (const auto &f : data)
            runFileRules(f, sink);

    if (opts.projectRules) {
        const detail::ProjectIndex ix = detail::buildIndex(data);
        detail::ruleS1(ix, sink);
        detail::ruleW2(ix, sink);
        for (const auto &f : data) {
            detail::ruleT2(f, sink);
            detail::ruleE1(f, sink);
        }
    }

    if (opts.auditWaivers)
        auditWaivers(data, sink, opts);

    std::vector<Diagnostic> out;
    if (opts.reportOnly.empty()) {
        out = std::move(sink.diags);
    } else {
        for (auto &d : sink.diags)
            if (opts.reportOnly.count(d.file))
                out.push_back(std::move(d));
    }
    sortDiags(out);
    return out;
}

IndexSummary
summarizeIndex(const std::vector<SourceFile> &files)
{
    std::vector<FileData> data;
    data.reserve(files.size());
    for (const auto &sf : files)
        data.push_back(detail::makeFileData(sf.path, sf.contents));
    const detail::ProjectIndex ix = detail::buildIndex(data);

    IndexSummary out;
    out.statLeafPaths = ix.statLeafPaths;
    out.statSegments = ix.statSegments;
    for (const auto &[name, fn] : ix.serializers)
        out.serializers.insert(name);
    for (const auto &[name, fn] : ix.parsers)
        out.parsers.insert(name);
    return out;
}

std::vector<Diagnostic>
lintFile(const std::string &path, const std::string &contents)
{
    const FileData f = detail::makeFileData(path, contents);
    Sink sink;
    runFileRules(f, sink);
    std::vector<Diagnostic> diags = std::move(sink.diags);
    std::stable_sort(diags.begin(), diags.end(),
                     [](const Diagnostic &a, const Diagnostic &b) {
                         if (a.line != b.line)
                             return a.line < b.line;
                         return a.rule < b.rule;
                     });
    return diags;
}

std::vector<Diagnostic>
lintPath(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        return {Diagnostic{"IO", path, 0, "cannot open file"}};
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    return lintFile(path, ss.str());
}

std::vector<SourceFile>
readSources(const std::string &root,
            const std::vector<std::string> &paths)
{
    std::vector<SourceFile> out;
    for (const auto &p : paths) {
        const bool absolute =
            !p.empty() && (p[0] == '/' || (p.size() > 1 && p[1] == ':'));
        const std::string full = absolute ? p : root + "/" + p;
        SourceFile sf;
        sf.path = p;
        std::ifstream in(full, std::ios::binary);
        if (!in) {
            sf.contents.clear();
            out.push_back(std::move(sf));
            continue;
        }
        std::ostringstream ss;
        ss << in.rdbuf();
        sf.contents = ss.str();
        out.push_back(std::move(sf));
    }
    return out;
}

// ---------------------------------------------------------------------
// Mechanical fixes
// ---------------------------------------------------------------------

std::string
applyFixes(const std::string &contents,
           const std::vector<Diagnostic> &diags, bool &changed)
{
    changed = false;
    bool addPragma = false;
    std::set<int> staleLines; // 1-based
    for (const auto &d : diags) {
        if (d.rule == "H1")
            addPragma = true;
        else if (d.rule == "A1" &&
                 d.message.rfind("stale waiver", 0) == 0)
            staleLines.insert(d.line);
    }
    if (!addPragma && staleLines.empty())
        return contents;

    std::vector<std::string> lines;
    {
        std::string cur;
        for (const char c : contents) {
            if (c == '\n') {
                lines.push_back(std::move(cur));
                cur.clear();
            } else {
                cur += c;
            }
        }
        lines.push_back(std::move(cur));
    }

    static const std::regex waiverRe(
        R"(\s*(//\s*)?qpip-lint:\s*[a-z][a-z-]*-ok\(\s*[^)\s][^)]*\)\s*)");
    for (const int ln : staleLines) {
        const std::size_t i = static_cast<std::size_t>(ln) - 1;
        if (i >= lines.size())
            continue;
        std::string stripped =
            std::regex_replace(lines[i], waiverRe, "");
        // A now-empty comment or blank line disappears entirely.
        static const std::regex emptyComment(R"(^\s*(//\s*)?$)");
        if (std::regex_match(stripped, emptyComment))
            stripped.clear();
        if (stripped != lines[i]) {
            lines[i] = stripped;
            changed = true;
        }
    }
    // Drop lines emptied by waiver removal (rather than leaving a
    // blank hole where the comment was).
    if (changed) {
        std::vector<std::string> keep;
        for (std::size_t i = 0; i < lines.size(); ++i) {
            if (lines[i].empty() &&
                staleLines.count(static_cast<int>(i) + 1)) {
                continue;
            }
            keep.push_back(lines[i]);
        }
        lines = std::move(keep);
    }

    if (addPragma) {
        // Insert after a leading block comment, before the first
        // code line.
        const Lexed lx = detail::lex(contents);
        std::size_t at = 0;
        for (std::size_t i = 0; i < lx.code.size() && i < lines.size();
             ++i) {
            if (lx.code[i].find_first_not_of(" \t") !=
                std::string::npos) {
                at = i;
                break;
            }
        }
        lines.insert(lines.begin() + static_cast<long>(at),
                     "#pragma once");
        if (at + 1 < lines.size() && !lines[at + 1].empty())
            lines.insert(lines.begin() + static_cast<long>(at) + 1,
                         "");
        changed = true;
    }

    std::string out;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        out += lines[i];
        if (i + 1 < lines.size())
            out += '\n';
    }
    return out;
}

// ---------------------------------------------------------------------
// File discovery
// ---------------------------------------------------------------------

std::vector<std::string>
collectTree(const std::string &root)
{
    std::vector<std::string> out;
    const fs::path base(root);
    for (const char *dir : {"src", "tests", "bench", "examples",
                            "tools"}) {
        const fs::path d = base / dir;
        if (!fs::exists(d))
            continue;
        for (auto it = fs::recursive_directory_iterator(d);
             it != fs::recursive_directory_iterator(); ++it) {
            if (it->is_directory() &&
                it->path().filename() == "lint_fixtures") {
                it.disable_recursion_pending();
                continue;
            }
            if (!it->is_regular_file())
                continue;
            const std::string ext = it->path().extension().string();
            if (ext != ".cc" && ext != ".cpp" && ext != ".hh" &&
                ext != ".h")
                continue;
            out.push_back(
                fs::relative(it->path(), base).generic_string());
        }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

std::vector<std::string>
filesFromCompileCommands(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();

    std::vector<std::string> out;
    static const std::regex fileRe(
        R"rx("file"\s*:\s*"((?:[^"\\]|\\.)*)")rx");
    for (auto it = std::sregex_iterator(text.begin(), text.end(), fileRe);
         it != std::sregex_iterator(); ++it) {
        std::string raw = (*it)[1].str(), un;
        for (std::size_t i = 0; i < raw.size(); ++i) {
            if (raw[i] == '\\' && i + 1 < raw.size())
                un += raw[++i];
            else
                un += raw[i];
        }
        out.push_back(un);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

} // namespace qpip::lint
