/**
 * @file
 * Comparing stats dumps across run modes: a partitioned run registers
 * the engine's own parallel.* diagnostics, which an unpartitioned run
 * has none of; everything else must match.
 */

#pragma once

#include <string>
#include <utility>
#include <vector>

namespace qpip::test {

/**
 * The lines of @p json less its parallel.* entries, each without its
 * separating comma.
 */
inline std::vector<std::string>
withoutEngineStats(const std::string &json)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos < json.size()) {
        std::size_t end = json.find('\n', pos);
        if (end == std::string::npos)
            end = json.size();
        std::string line = json.substr(pos, end - pos);
        if (!line.empty() && line.back() == ',')
            line.pop_back();
        if (line.compare(0, 12, "  \"parallel.") != 0)
            out.push_back(std::move(line));
        pos = end + 1;
    }
    return out;
}

} // namespace qpip::test
