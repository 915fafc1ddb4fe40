#include "sim/trace.hh"

#include <algorithm>
#include <cstdio>

#include "sim/logging.hh"

namespace qpip::sim {

std::uint32_t
Tracer::trackId(const std::string &track)
{
    auto it = tracks_.find(track);
    if (it != tracks_.end())
        return it->second;
    const auto id = static_cast<std::uint32_t>(tracks_.size() + 1);
    tracks_.emplace(track, id);
    return id;
}

void
Tracer::span(const std::string &track, const std::string &name,
             Tick start, Tick dur, std::string args)
{
    if (!enabled_)
        return;
    Event e;
    e.ts = start;
    e.dur = dur;
    e.isSpan = true;
    e.track = trackId(track);
    e.name = name;
    e.args = std::move(args);
    events_.push_back(std::move(e));
}

void
Tracer::instant(const std::string &track, const std::string &name,
                Tick ts, std::string args)
{
    if (!enabled_)
        return;
    Event e;
    e.ts = ts;
    e.track = trackId(track);
    e.name = name;
    e.args = std::move(args);
    events_.push_back(std::move(e));
}

namespace {

// Ticks are ps; Chrome's ts/dur unit is us. Six decimals keep full
// picosecond precision in the decimal representation.
std::string
usField(Tick t)
{
    return strfmt("%llu.%06llu",
                  static_cast<unsigned long long>(t / oneUs),
                  static_cast<unsigned long long>(t % oneUs));
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) {
            out += strfmt("\\u%04x", c);
            continue;
        }
        out += c;
    }
    return out;
}

} // namespace

std::string
Tracer::json() const
{
    // Stable sort by start time: emission order breaks ties, and
    // consumers (and the determinism tests) see non-decreasing ts.
    std::vector<const Event *> sorted;
    sorted.reserve(events_.size());
    for (const auto &e : events_)
        sorted.push_back(&e);
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Event *a, const Event *b) {
                         return a->ts < b->ts;
                     });

    std::string out = "{\"displayTimeUnit\": \"ns\", "
                      "\"traceEvents\": [";
    bool first = true;
    auto emit = [&](const std::string &line) {
        if (!first)
            out += ",";
        first = false;
        out += "\n  " + line;
    };
    for (const auto &[track, id] : tracks_) {
        emit(strfmt("{\"ph\": \"M\", \"pid\": 1, \"tid\": %u, "
                    "\"name\": \"thread_name\", "
                    "\"args\": {\"name\": \"%s\"}}",
                    id, jsonEscape(track).c_str()));
    }
    for (const auto *e : sorted) {
        std::string line =
            strfmt("{\"ph\": \"%s\", \"pid\": 1, \"tid\": %u, "
                   "\"ts\": %s, ",
                   e->isSpan ? "X" : "i", e->track,
                   usField(e->ts).c_str());
        if (e->isSpan)
            line += strfmt("\"dur\": %s, ", usField(e->dur).c_str());
        else
            line += "\"s\": \"t\", ";
        line += "\"name\": \"" + jsonEscape(e->name) + "\"";
        if (!e->args.empty())
            line += ", \"args\": " + e->args;
        line += "}";
        emit(line);
    }
    out += "\n]}";
    return out;
}

bool
Tracer::writeFile(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        warn("Tracer: cannot open '%s'", path.c_str());
        return false;
    }
    const std::string text = json();
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    std::fclose(f);
    return ok;
}

} // namespace qpip::sim
