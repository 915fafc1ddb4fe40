#include "sarif.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

namespace qpip::lint {

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

const char *
ruleDescription(const std::string &rule)
{
    if (rule == "D1") return "No nondeterminism sources in src/";
    if (rule == "D2") return "No iteration over unordered containers";
    if (rule == "L1") return "Include layering must follow the DAG";
    if (rule == "W1") return "Wire bytes only via the serializers";
    if (rule == "T1") return "Threading primitives only under src/sim";
    if (rule == "Q1") return "No std::deque in src/: use sim::RingFifo";
    if (rule == "H1") return "Headers use #pragma once";
    if (rule == "S1") return "Stat paths must resolve against the registry";
    if (rule == "W2") return "serialize/parse field sequences must pair";
    if (rule == "T2") return "Cross-partition access via Link/Mailbox only";
    if (rule == "E1") return "No by-reference captures in deferred callbacks";
    if (rule == "A1") return "Waivers must still suppress a live finding";
    if (rule == "IO") return "File could not be read";
    return "qpip-lint finding";
}

} // namespace

std::string
toSarif(const std::vector<Diagnostic> &diags)
{
    // Rules referenced by the findings, in stable (sorted) order.
    std::map<std::string, int> ruleIndex;
    for (const auto &d : diags)
        ruleIndex.emplace(d.rule, 0);
    {
        int i = 0;
        for (auto &[id, idx] : ruleIndex)
            idx = i++;
    }

    std::ostringstream os;
    os << "{\n"
       << "  \"$schema\": \"https://raw.githubusercontent.com/oasis-"
          "tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n"
       << "  \"version\": \"2.1.0\",\n"
       << "  \"runs\": [\n"
       << "    {\n"
       << "      \"tool\": {\n"
       << "        \"driver\": {\n"
       << "          \"name\": \"qpip-lint\",\n"
       << "          \"version\": \"2.0.0\",\n"
       << "          \"informationUri\": "
          "\"https://example.invalid/qpip/DESIGN.md\",\n"
       << "          \"rules\": [\n";
    {
        std::size_t i = 0;
        for (const auto &[id, idx] : ruleIndex) {
            os << "            {\n"
               << "              \"id\": \"" << jsonEscape(id)
               << "\",\n"
               << "              \"shortDescription\": { \"text\": \""
               << jsonEscape(ruleDescription(id)) << "\" }\n"
               << "            }"
               << (++i < ruleIndex.size() ? "," : "") << "\n";
        }
    }
    os << "          ]\n"
       << "        }\n"
       << "      },\n"
       << "      \"results\": [\n";
    for (std::size_t i = 0; i < diags.size(); ++i) {
        const auto &d = diags[i];
        std::string uri = d.file;
        std::replace(uri.begin(), uri.end(), '\\', '/');
        os << "        {\n"
           << "          \"ruleId\": \"" << jsonEscape(d.rule)
           << "\",\n"
           << "          \"ruleIndex\": " << ruleIndex[d.rule] << ",\n"
           << "          \"level\": \"error\",\n"
           << "          \"message\": { \"text\": \""
           << jsonEscape(d.message) << "\" },\n"
           << "          \"locations\": [\n"
           << "            {\n"
           << "              \"physicalLocation\": {\n"
           << "                \"artifactLocation\": { \"uri\": \""
           << jsonEscape(uri) << "\" },\n"
           << "                \"region\": { \"startLine\": "
           << std::max(d.line, 1) << " }\n"
           << "              }\n"
           << "            }\n"
           << "          ]\n"
           << "        }" << (i + 1 < diags.size() ? "," : "") << "\n";
    }
    os << "      ]\n"
       << "    }\n"
       << "  ]\n"
       << "}\n";
    return os.str();
}

} // namespace qpip::lint
