#include "inet/tcp_reass.hh"

#include <algorithm>

namespace qpip::inet {

void
TcpReassembly::insert(std::uint64_t offset,
                      std::span<const std::uint8_t> data,
                      std::uint64_t next_expected)
{
    // Trim anything already delivered.
    if (offset < next_expected) {
        const std::uint64_t trim = next_expected - offset;
        if (trim >= data.size())
            return;
        data = data.subspan(static_cast<std::size_t>(trim));
        offset = next_expected;
    }
    if (data.empty())
        return;

    std::uint64_t pos = offset;
    std::uint64_t end = offset + data.size();

    // Walk existing segments, inserting only the gaps (first copy
    // wins on overlap).
    auto it = segments_.upper_bound(pos);
    if (it != segments_.begin()) {
        auto prev = std::prev(it);
        const std::uint64_t prev_end = prev->first + prev->second.size();
        if (prev_end > pos)
            pos = prev_end;
    }
    while (pos < end) {
        it = segments_.lower_bound(pos);
        std::uint64_t gap_end = end;
        if (it != segments_.end())
            gap_end = std::min(gap_end, it->first);
        if (pos < gap_end) {
            const auto base = static_cast<std::size_t>(pos - offset);
            const auto len = static_cast<std::size_t>(gap_end - pos);
            std::vector<std::uint8_t> piece(
                data.begin() + static_cast<std::ptrdiff_t>(base),
                data.begin() + static_cast<std::ptrdiff_t>(base + len));
            segments_.emplace(pos, std::move(piece));
        }
        if (it == segments_.end())
            break;
        pos = it->first + it->second.size();
    }
}

std::size_t
TcpReassembly::extract(std::uint64_t next_expected,
                       std::vector<std::uint8_t> &out)
{
    std::size_t n = 0;
    while (!segments_.empty()) {
        auto it = segments_.begin();
        if (it->first != next_expected)
            break;
        out.insert(out.end(), it->second.begin(), it->second.end());
        n += it->second.size();
        next_expected += it->second.size();
        segments_.erase(it);
    }
    return n;
}

void
TcpReassembly::clear()
{
    segments_.clear();
}

} // namespace qpip::inet
