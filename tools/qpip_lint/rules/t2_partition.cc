/**
 * @file
 * T2: partition discipline. Model code outside src/sim runs inside
 * exactly one partition; mutable static state is shared across all of
 * them by construction, and scheduling directly into another object's
 * event queue bypasses the conservative-sync channel accounting.
 * Cross-partition traffic goes through the Link/Mailbox APIs
 * (net/link.* is the one sanctioned boundary and owns the eq-side
 * handoff).
 */

#include <algorithm>
#include <regex>
#include <string>

#include "../internal.hh"

namespace qpip::lint::detail {

namespace {

bool
linkBoundary(const std::string &path)
{
    std::string p = path;
    std::replace(p.begin(), p.end(), '\\', '/');
    return p.find("net/link.") != std::string::npos;
}

/** Statement text from 'static' to the first of ';', '{' or '='. */
std::string
staticStatement(const FileData &f, std::size_t line, std::size_t col)
{
    std::string out;
    for (std::size_t i = line; i < f.lx.code.size() && i < line + 5;
         ++i) {
        const std::string &l = f.lx.code[i];
        for (std::size_t c = i == line ? col : 0; c < l.size(); ++c) {
            if (l[c] == ';' || l[c] == '{' || l[c] == '=')
                return out;
            out += l[c];
        }
        out += ' ';
    }
    return out;
}

} // namespace

void
ruleT2(const FileData &f, Sink &sink)
{
    if (f.layer == Layer::Top || f.layer == Layer::Sim)
        return;

    // (a) mutable static / namespace-scope data.
    static const std::regex staticRe(R"(\bstatic\b)");
    for (std::size_t i = 0; i < f.lx.code.size(); ++i) {
        std::smatch m;
        std::string::const_iterator from = f.lx.code[i].begin();
        while (std::regex_search(from, f.lx.code[i].cend(), m,
                                 staticRe)) {
            const std::size_t col = static_cast<std::size_t>(
                m.position() + (from - f.lx.code[i].begin()));
            from = m[0].second;
            const std::string stmt = staticStatement(f, i, col);
            if (stmt.find("static_assert") != std::string::npos ||
                stmt.find("static_cast") != std::string::npos)
                continue;
            static const std::regex constRe(
                R"(\bstatic\s+(const|constexpr|inline\s+const|)"
                R"(inline\s+constexpr)\b)");
            if (std::regex_search(stmt, constRe))
                continue;
            if (stmt.find('(') != std::string::npos)
                continue; // function or member-function declaration
            sink.add(f, "T2", i,
                     "mutable static state outside src/sim: statics "
                     "are shared across every partition, so writes "
                     "race under the parallel engine and break "
                     "same-seed replay; hang the state off the owning "
                     "SimObject");
        }
    }

    // (b) scheduling into a foreign event queue.
    if (linkBoundary(f.path))
        return;
    static const std::regex foreignRe(
        R"((eventQueue\s*\(\s*\)|\beq[A-Za-z0-9_]*)\s*(->|\.)\s*(schedule|hold)\s*\()");
    for (std::size_t i = 0; i < f.lx.code.size(); ++i) {
        if (std::regex_search(f.lx.code[i], foreignRe))
            sink.add(f, "T2", i,
                     "direct scheduling into an event queue outside "
                     "src/sim: cross-SimObject traffic must go "
                     "through the Link/Mailbox APIs so the "
                     "conservative sync protocol can account for it");
    }
}

} // namespace qpip::lint::detail
