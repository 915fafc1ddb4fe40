#include "sim/stat_registry.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace qpip::sim {

bool
statPatternMatch(const std::string &pattern, const std::string &path)
{
    if (pattern == "*")
        return true;
    // Iterative glob with single-star backtracking.
    std::size_t p = 0, s = 0;
    std::size_t star = std::string::npos, mark = 0;
    while (s < path.size()) {
        if (p < pattern.size() &&
            (pattern[p] == '?' || pattern[p] == path[s])) {
            ++p;
            ++s;
        } else if (p < pattern.size() && pattern[p] == '*') {
            star = p++;
            mark = s;
        } else if (star != std::string::npos) {
            p = star + 1;
            s = ++mark;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*')
        ++p;
    return p == pattern.size();
}

namespace {

/** Three-way compare of a1+a2 against b1+b2, without joining them. */
int
compareJoined(std::string_view a1, std::string_view a2,
              std::string_view b1, std::string_view b2)
{
    for (;;) {
        if (a1.empty()) {
            if (a2.empty())
                return b1.empty() && b2.empty() ? 0 : -1;
            a1 = std::exchange(a2, {});
        } else if (b1.empty()) {
            if (b2.empty())
                return 1;
            b1 = std::exchange(b2, {});
        } else {
            const std::size_t n = std::min(a1.size(), b1.size());
            if (const int c = a1.substr(0, n).compare(b1.substr(0, n)))
                return c;
            a1.remove_prefix(n);
            b1.remove_prefix(n);
        }
    }
}

template <typename Leaves>
auto
lowerLeaf(Leaves &leaves, std::string_view name)
{
    return std::lower_bound(
        leaves.begin(), leaves.end(), name,
        [](const auto &leaf, std::string_view n) { return leaf.name < n; });
}

template <typename Leaves>
auto
findLeaf(Leaves &leaves, std::string_view name)
{
    auto it = lowerLeaf(leaves, name);
    return it != leaves.end() && it->name == name ? it : leaves.end();
}

bool
hasLeaf(const StatLeaves &leaves, std::string_view name)
{
    return findLeaf(leaves.leaves(), name) != leaves.leaves().end();
}

} // namespace

bool
StatLeaves::insert(Leaf leaf)
{
    auto pos = lowerLeaf(leaves_, leaf.name);
    if (pos != leaves_.end() && pos->name == leaf.name)
        return false;
    leaves_.insert(pos, std::move(leaf));
    return true;
}

void
StatRegistry::attach(Node &node, std::string key, const StatLeaves *table,
                     const void *base)
{
    std::lock_guard<std::mutex> lock(m_);
    node.dir = dirs_.try_emplace(std::move(key)).first;
    for (const Leaf &leaf : table->leaves()) {
        if (claim(node, leaf.name) != dirs_.end())
            panic("StatRegistry: table leaf '%s' has a dot",
                  leaf.name.c_str());
    }
    node.leaves = table;
    node.base = base;
    node.next = std::exchange(node.dir->second.nodes, &node);
}

void
StatRegistry::detach(Node &node, const OwnLeaves *own)
{
    std::lock_guard<std::mutex> lock(m_);
    for (std::size_t i = 0; own != nullptr && i < own->landings.size();
         ++i) {
        const auto [landing, count] = own->landings[i];
        Dir &d = landing->second;
        if ((d.dotted -= count) == 0) {
            d.dottedBy = nullptr;
            if (d.nodes == nullptr)
                dirs_.erase(landing);
        }
    }
    size_ -= node.leaves->leaves().size();
    node.leaves = nullptr;
    node.base = nullptr;
    Dir &dir = node.dir->second;
    Node **link = &dir.nodes;
    while (*link != &node)
        link = &(*link)->next;
    *link = node.next;
    node.next = nullptr;
    if (dir.nodes == nullptr && dir.dotted == 0)
        dirs_.erase(node.dir);
}

void
StatRegistry::addLeaf(Node &node, OwnLeaves *own, const std::string &leaf,
                      StatKind kind, const void *stat)
{
    if (own == nullptr)
        panic("StatGroup: add to '%s', bound to a table", node.key().c_str());
    std::lock_guard<std::mutex> lock(m_);
    const DirMap::iterator landing = claim(node, leaf);
    if (!own->add(leaf, kind, stat))
        panic("StatRegistry: duplicate stat path '%s'",
              (node.key() + leaf).c_str());
    if (landing == dirs_.end())
        return;
    if (!own->landings.empty() && own->landings.back().first == landing)
        ++own->landings.back().second;
    else
        own->landings.emplace_back(landing, 1);
}

/*
 * A path collides with an existing one either under the same key (the
 * same leaf in this node or a sibling node) or under another key,
 * where one of the two leaves has dots in it and lands in the other's
 * directory. Each directory counts the dotted leaves landing in it and
 * remembers whose they are, so the full search (find) runs only when
 * another node's dotted leaves land where this path does: undotted
 * leaves of ordinary groups, and a group's own stage.* or faults.*
 * leaves, are checked in their own nodes alone. A node's own leaves
 * are checked against each other when they are inserted.
 */
StatRegistry::DirMap::iterator
StatRegistry::claim(const Node &node, const std::string &leaf)
{
    const std::string &key = node.key();
    if (key.empty() && leaf.empty())
        panic("StatRegistry: empty stat path");
    bool clash = false;
    const std::size_t dot = leaf.rfind('.');
    // The Dir this path's directory names, and the leaf under it.
    DirMap::iterator dir = node.dir;
    std::string_view last = leaf;
    if (dot != std::string::npos) {
        dir = dirs_.try_emplace(key + leaf.substr(0, dot + 1)).first;
        last.remove_prefix(dot + 1);
    }
    for (Node *n = dir->second.nodes; n != nullptr && !clash; n = n->next)
        clash = n != &node && hasLeaf(*n->leaves, last);
    if (!clash && dir->second.dotted > 0 && dir->second.dottedBy != &node)
        clash = find(key + leaf).stat != nullptr;
    if (clash)
        panic("StatRegistry: duplicate stat path '%s'",
              (key + leaf).c_str());
    ++size_;
    if (dot == std::string::npos)
        return dirs_.end();
    Dir &d = dir->second;
    d.dottedBy = d.dotted == 0 || d.dottedBy == &node ? &node : nullptr;
    ++d.dotted;
    return dir;
}

/*
 * Try each dot of @p path as the key/leaf split, rightmost first: most
 * paths are an undotted leaf of their group, found by the first probe.
 */
StatRegistry::Entry
StatRegistry::find(std::string_view path) const
{
    for (std::size_t end = path.size();;) {
        const std::size_t dot =
            end == 0 ? std::string_view::npos : path.rfind('.', end - 1);
        const std::size_t keyLen = dot == std::string_view::npos ? 0 : dot + 1;
        auto dir = dirs_.find(path.substr(0, keyLen));
        if (dir != dirs_.end()) {
            for (Node *n = dir->second.nodes; n != nullptr; n = n->next) {
                const auto &leaves = n->leaves->leaves();
                auto it = findLeaf(leaves, path.substr(keyLen));
                if (it != leaves.end())
                    return entryOf(*n, *it);
            }
        }
        if (dot == std::string_view::npos)
            return {};
        end = dot;
    }
}

template <typename T>
const T *
StatRegistry::typed(std::string_view path, StatKind kind) const
{
    const Entry e = find(path);
    return e.kind == kind ? static_cast<const T *>(e.stat) : nullptr;
}

/*
 * Calls fn(path, entry) for every registration in path order. Every
 * path of a node starts with its key, so walking keys in order opens
 * nodes in the order of their first paths. The nodes still open when
 * the next one opens have keys that prefix its key (any other is
 * exhausted by then), so the merge only ever compares a short chain.
 * When only one open node has leaves before the next key, and its key
 * does not prefix that key, all its leaves sort before the next key
 * and before the other nodes' leaves, so they are emitted without
 * comparing: the common case of a connection's node under its NIC's.
 */
template <typename Fn>
void
StatRegistry::forEach(Fn &&fn) const
{
    struct Cursor
    {
        const Node *node;
        const Leaf *at;
        const Leaf *end;
    };
    std::vector<Cursor> open;
    std::string path;
    const auto emit = [&](Cursor &c) {
        path.assign(c.node->key()).append(c.at->name);
        fn(path, entryOf(*c.node, *c.at));
        ++c.at;
    };
    // Emit open leaves in order while they sort before `bound`.
    const auto drain = [&](const std::string *bound) {
        Cursor *lone = nullptr;
        std::size_t live = 0;
        for (Cursor &c : open) {
            if (bound == nullptr ||
                compareJoined(c.node->key(), c.at->name, *bound, {}) < 0) {
                lone = &c;
                ++live;
            }
        }
        if (live == 1 &&
            (bound == nullptr || !bound->starts_with(lone->node->key()))) {
            while (lone->at != lone->end)
                emit(*lone);
        }
        for (;;) {
            Cursor *min = nullptr;
            for (Cursor &c : open) {
                if (c.at != c.end &&
                    (min == nullptr ||
                     compareJoined(c.node->key(), c.at->name,
                                   min->node->key(), min->at->name) < 0)) {
                    min = &c;
                }
            }
            if (min == nullptr ||
                (bound != nullptr &&
                 compareJoined(min->node->key(), min->at->name, *bound,
                               {}) >= 0))
                break;
            emit(*min);
        }
        std::erase_if(open, [](const Cursor &c) { return c.at == c.end; });
    };
    for (const auto &[key, dir] : dirs_) {
        if (dir.nodes == nullptr)
            continue;
        drain(&key);
        for (const Node *n = dir.nodes; n != nullptr; n = n->next) {
            const auto &leaves = n->leaves->leaves();
            if (!leaves.empty()) {
                open.push_back(
                    {n, leaves.data(), leaves.data() + leaves.size()});
            }
        }
    }
    drain(nullptr);
}

bool
StatRegistry::contains(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(m_);
    return find(path).stat != nullptr;
}

std::size_t
StatRegistry::size() const
{
    std::lock_guard<std::mutex> lock(m_);
    return size_;
}

const Counter *
StatRegistry::counter(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(m_);
    return typed<Counter>(path, StatKind::Counter);
}

const SampleStat *
StatRegistry::sample(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(m_);
    return typed<SampleStat>(path, StatKind::Sample);
}

const Histogram *
StatRegistry::histogram(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(m_);
    return typed<Histogram>(path, StatKind::Histogram);
}

std::uint64_t
StatRegistry::counterValue(const std::string &path) const
{
    const Counter *c = counter(path);
    return c != nullptr ? c->value() : 0;
}

std::vector<std::string>
StatRegistry::match(const std::string &pattern) const
{
    std::vector<std::string> out;
    std::lock_guard<std::mutex> lock(m_);
    if (pattern == "*")
        out.reserve(size_);
    forEach([&](const std::string &path, const Entry &) {
        if (statPatternMatch(pattern, path))
            out.push_back(path);
    });
    return out;
}

namespace {

// %.17g round-trips doubles exactly; JSON forbids bare inf/nan but no
// registered stat produces them (SampleStat min/max report 0 on empty).
std::string
jsonNumber(double v)
{
    return strfmt("%.17g", v);
}

std::string
jsonNumber(std::uint64_t v)
{
    return strfmt("%llu", static_cast<unsigned long long>(v));
}

} // namespace

std::string
StatRegistry::jsonDump(const std::string &pattern) const
{
    std::string out = "{";
    bool first = true;
    std::lock_guard<std::mutex> lock(m_);
    forEach([&](const std::string &path, const Entry &e) {
        if (!statPatternMatch(pattern, path))
            return;
        if (!first)
            out += ",";
        first = false;
        out += "\n  \"" + path + "\": ";
        if (e.kind == StatKind::Counter) {
            out += "{\"kind\": \"counter\", \"value\": " +
                   jsonNumber(static_cast<const Counter *>(e.stat)->value()) +
                   "}";
        } else if (e.kind == StatKind::Sample) {
            const auto &s = *static_cast<const SampleStat *>(e.stat);
            out += "{\"kind\": \"sample\", \"count\": " +
                   jsonNumber(s.count()) +
                   ", \"total\": " + jsonNumber(s.total()) +
                   ", \"mean\": " + jsonNumber(s.mean()) +
                   ", \"min\": " + jsonNumber(s.min()) +
                   ", \"max\": " + jsonNumber(s.max()) + "}";
        } else {
            const auto &h = *static_cast<const Histogram *>(e.stat);
            out += "{\"kind\": \"histogram\", \"count\": " +
                   jsonNumber(h.count()) +
                   ", \"underflow\": " + jsonNumber(h.underflow()) +
                   ", \"overflow\": " + jsonNumber(h.overflow()) +
                   ", \"buckets\": [";
            for (std::size_t i = 0; i < h.numBuckets(); ++i) {
                if (i > 0)
                    out += ", ";
                out += jsonNumber(h.bucket(i));
            }
            out += "]}";
        }
    });
    out += first ? "}" : "\n}";
    return out;
}

void
StatGroup::init(StatRegistry &registry, std::string prefix)
{
    own_ = std::make_unique<StatRegistry::OwnLeaves>();
    bind(registry, std::move(prefix), own_.get(), nullptr);
}

void
StatGroup::bind(StatRegistry &registry, std::string prefix,
                const StatLeaves *table, const void *base)
{
    if (registry_ != nullptr)
        panic("StatGroup: already bound to '%s'", this->prefix().c_str());
    registry_ = &registry;
    if (!prefix.empty())
        prefix += '.';
    registry.attach(node_, std::move(prefix), table, base);
}

std::string
StatGroup::prefix() const
{
    if (registry_ == nullptr || node_.key().empty())
        return "";
    return node_.key().substr(0, node_.key().size() - 1);
}

void
StatGroup::clear()
{
    if (registry_ == nullptr)
        return;
    registry_->detach(node_, own_.get());
    registry_ = nullptr;
    own_.reset();
}

} // namespace qpip::sim
