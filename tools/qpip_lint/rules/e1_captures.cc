/**
 * @file
 * E1: no by-reference captures in deferred callbacks. A closure
 * handed to schedule()/scheduleIn()/hold()/park()/exec()/
 * scheduleTimer() runs
 * after the enclosing frame is gone — and after the referenced
 * object may have been destroyed (destroyQp erases the QP
 * immediately) — so [&] / [&x] there is the PR 5 use-after-free
 * class. Capture by value, or capture an id and re-look-up inside
 * the callback.
 */

#include <cctype>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "../internal.hh"

namespace qpip::lint::detail {

namespace {

/** Split a capture list on top-level commas. */
std::vector<std::string>
splitCaptures(const std::string &list)
{
    std::vector<std::string> out;
    std::string cur;
    int depth = 0;
    for (const char c : list) {
        if (c == '(' || c == '{' || c == '<' || c == '[')
            ++depth;
        else if (c == ')' || c == '}' || c == '>' || c == ']')
            --depth;
        if (c == ',' && depth == 0) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    out.push_back(cur);
    return out;
}

std::string
trim(const std::string &s)
{
    const auto b = s.find_first_not_of(" \t\n");
    if (b == std::string::npos)
        return "";
    const auto e = s.find_last_not_of(" \t\n");
    return s.substr(b, e - b + 1);
}

} // namespace

void
ruleE1(const FileData &f, Sink &sink)
{
    if (f.layer == Layer::Top)
        return;

    const std::string &all = f.all;
    static const std::regex sinkRe(
        R"(\b(schedule|scheduleIn|hold|park|exec|scheduleTimer)\s*\()");
    // Nested sinks see the same lambda twice; dedupe per line+names.
    std::set<std::pair<std::size_t, std::string>> reported;

    for (auto it = std::sregex_iterator(all.begin(), all.end(), sinkRe);
         it != std::sregex_iterator(); ++it) {
        const std::size_t open = static_cast<std::size_t>(
            it->position() + it->length() - 1);
        const std::size_t close = skipParens(all, open);
        if (close == std::string::npos)
            continue;
        for (std::size_t p = open + 1; p < close; ++p) {
            if (all[p] != '[')
                continue;
            // A lambda introducer follows '(' or ',' (an argument
            // position); after an identifier or ')' it is a
            // subscript.
            std::size_t q = p;
            while (q > 0 && std::isspace(static_cast<unsigned char>(
                                all[q - 1])))
                --q;
            if (q == 0 || (all[q - 1] != '(' && all[q - 1] != ','))
                continue;
            // Matching ']' (captures may nest brackets in inits).
            int depth = 0;
            std::size_t end = p;
            for (; end < close; ++end) {
                if (all[end] == '[')
                    ++depth;
                else if (all[end] == ']' && --depth == 0)
                    break;
            }
            if (end >= close)
                continue;
            const std::string list =
                all.substr(p + 1, end - p - 1);
            std::vector<std::string> refs;
            for (const auto &item : splitCaptures(list)) {
                const std::string t = trim(item);
                if (t.empty())
                    continue;
                if (t == "&" || (t[0] == '&' && t[1] != '&'))
                    refs.push_back(t == "&" ? "&" : t);
            }
            if (refs.empty())
                continue;
            std::string names;
            for (std::size_t i = 0; i < refs.size(); ++i)
                names += (i ? ", " : "") + refs[i];
            const std::size_t line = f.lineOf(p);
            if (!reported.emplace(line, names).second)
                continue;
            sink.add(f, "E1", line,
                     "by-reference capture [" + names +
                         "] in a callback passed to " +
                         (*it)[1].str() +
                         "(): the closure outlives this frame (and "
                         "possibly the referent) — capture by value, "
                         "or capture an id and re-look-up in the "
                         "callback");
        }
    }
}

} // namespace qpip::lint::detail
