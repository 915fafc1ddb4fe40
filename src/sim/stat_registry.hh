/**
 * @file
 * Hierarchical statistics registry: every Counter/SampleStat/Histogram
 * in the simulation registers under a dotted path (e.g.
 * "host0.qnic.fw.stage.getWr") so tests, benches and reports can
 * enumerate, pattern-match and dump them uniformly instead of
 * hand-plumbing struct fields. The registry stores non-owning pointers;
 * StatGroup ties registration lifetime to the owning object so paths
 * never dangle.
 */

#pragma once

#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "sim/stats.hh"

namespace qpip::sim {

class StatGroup;

/**
 * Match @p path against a glob @p pattern where '*' matches any run of
 * characters (including dots) and '?' matches exactly one.
 */
bool statPatternMatch(const std::string &pattern,
                      const std::string &path);

/**
 * The registry. One per Simulation; enumerated in path order so
 * enumeration and JSON dumps are deterministic.
 *
 * Stats are stored per group, not per path: the registry keeps one
 * node per group prefix, and each group keeps its own sorted leaves.
 * Registering or unregistering a group is one map operation; full
 * paths are built only when enumerated or looked up.
 */
class StatRegistry
{
  public:
    bool contains(const std::string &path) const;
    std::size_t size() const;

    /** Typed lookup; nullptr when absent or a different kind. */
    const Counter *counter(const std::string &path) const;
    const SampleStat *sample(const std::string &path) const;
    const Histogram *histogram(const std::string &path) const;

    /** Counter value, or 0 when absent (benches' common case). */
    std::uint64_t counterValue(const std::string &path) const;

    /** All registered paths matching @p pattern, sorted. */
    std::vector<std::string>
    match(const std::string &pattern = "*") const;

    /**
     * JSON dump of every stat matching @p pattern: one flat object
     * keyed by path, each value an object carrying "kind" plus the
     * kind's fields. Deterministic (sorted, fixed number formatting).
     */
    std::string jsonDump(const std::string &pattern = "*") const;

  private:
    friend class StatGroup;

    enum class Kind : std::uint8_t { Counter, Sample, Histogram };

    struct Entry
    {
        const void *stat = nullptr;
        Kind kind = Kind::Counter;
    };

    static Entry entryOf(const Counter &c) { return {&c, Kind::Counter}; }
    static Entry entryOf(const SampleStat &s) { return {&s, Kind::Sample}; }
    static Entry
    entryOf(const Histogram &h)
    {
        return {&h, Kind::Histogram};
    }

    struct Node;

    /**
     * Everything under one key ("<prefix>.", or "" for an unprefixed
     * group): the nodes with that key, and the dotted leaves of shorter
     * keys whose directory it is ("a." leaf "b.c" lands in "a.b.").
     */
    struct Dir
    {
        Node *nodes = nullptr;
        std::size_t dotted = 0;
        /** The one node all `dotted` leaves belong to; null if several. */
        const Node *dottedBy = nullptr;
    };

    using DirMap = std::map<std::string, Dir, std::less<>>;

    /** One registration: the path relative to its node's key. */
    struct Leaf
    {
        std::string name;
        Entry entry;
        /** Dotted leaves: the Dir they land in. */
        DirMap::iterator landing;
    };

    /** One group's registrations, leaves sorted by name. */
    struct Node
    {
        DirMap::iterator dir;
        Node *next = nullptr;
        std::vector<Leaf> leaves;

        const std::string &key() const { return dir->first; }
    };

    void attach(Node &node, std::string key);
    void detach(Node &node);
    void addLeaf(Node &node, const std::string &leaf, Entry entry);

    // The rest expect m_ held.
    /** The registration at @p path, or nullptr. */
    const Entry *find(std::string_view path) const;
    template <typename T> const T *typed(std::string_view path,
                                         Kind kind) const;
    template <typename Fn> void forEach(Fn &&fn) const;

    /**
     * Registration happens at runtime (per-connection TCP stats), so
     * under a parallel engine concurrent partitions may add/remove
     * stats; the maps and every node's leaves need a lock. Stat
     * *values* are written only by their single owning partition and
     * read after runs.
     */
    mutable std::mutex m_;
    DirMap dirs_;
    std::size_t size_ = 0;
};

/**
 * A set of registrations sharing a prefix whose lifetime is bound to
 * the owning object: the destructor unregisters every path added
 * through the group.
 */
class StatGroup
{
  public:
    StatGroup() = default;
    ~StatGroup() { clear(); }

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Bind to @p registry with @p prefix (must be unbound). */
    void init(StatRegistry &registry, std::string prefix);

    bool bound() const { return registry_ != nullptr; }
    /** The bound prefix ("" when unbound). */
    std::string prefix() const;

    /** Register @p stat as "<prefix>.<leaf>". @pre bound(). */
    template <typename Stat>
    void
    add(const std::string &leaf, const Stat &stat)
    {
        registry_->addLeaf(node_, leaf, StatRegistry::entryOf(stat));
    }

    /** Unregister everything and unbind. */
    void clear();

  private:
    StatRegistry *registry_ = nullptr;
    StatRegistry::Node node_;
};

} // namespace qpip::sim
