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
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "sim/logging.hh"
#include "sim/stats.hh"

namespace qpip::sim {

class StatGroup;

/**
 * Match @p path against a glob @p pattern where '*' matches any run of
 * characters (including dots) and '?' matches exactly one.
 */
bool statPatternMatch(const std::string &pattern,
                      const std::string &path);

/** The stat types a registry holds. */
enum class StatKind : std::uint8_t { Counter, Sample, Histogram };

/** The kind of stat type @p Stat. */
template <typename Stat>
constexpr StatKind
statKindOf()
{
    if constexpr (std::is_same_v<Stat, Counter>) {
        return StatKind::Counter;
    } else if constexpr (std::is_same_v<Stat, SampleStat>) {
        return StatKind::Sample;
    } else {
        static_assert(std::is_same_v<Stat, Histogram>);
        return StatKind::Histogram;
    }
}

/**
 * The one view the registry reads a group's leaves through: names
 * relative to the group's prefix, sorted, each with its kind and what
 * stat() turns into the stat's address given the group's base object.
 */
class StatLeaves
{
  public:
    struct Leaf
    {
        std::string name;
        StatKind kind = StatKind::Counter;
        /** A table leaf's member index. */
        std::uint32_t slot = 0;
        /** A group's own leaf: the stat itself. */
        const void *stat = nullptr;
    };

    virtual ~StatLeaves() = default;

    const std::vector<Leaf> &leaves() const { return leaves_; }

    /** The stat @p leaf names in the object at @p base. */
    virtual const void *stat(const Leaf &leaf, const void *base) const = 0;

  protected:
    /** Insert @p leaf in name order; false if its name is taken. */
    bool insert(Leaf leaf);

    std::vector<Leaf> leaves_;
};

/**
 * An immutable leaf table shared by every object of type @p T: each
 * leaf, undotted, names a stat member of T. A group bound to a table
 * stores two pointers (the table and the object) instead of a copy of
 * every leaf, so a type registered many times (TcpStats, once per
 * connection) builds its table once, as a function-local static.
 */
template <typename T>
class StatTable final : public StatLeaves
{
  public:
    /** Describe member @p member of T as leaf @p leaf. */
    template <typename Stat>
    void
    add(const std::string &leaf, Stat T::*member)
    {
        const auto slot = static_cast<std::uint32_t>(members_.size());
        if (!insert({leaf, statKindOf<Stat>(), slot}))
            panic("StatTable: duplicate leaf '%s'", leaf.c_str());
        members_.push_back(member);
    }

    const void *
    stat(const Leaf &leaf, const void *base) const override
    {
        const T &obj = *static_cast<const T *>(base);
        return std::visit(
            [&obj](auto member) -> const void * { return &(obj.*member); },
            members_[leaf.slot]);
    }

  private:
    std::vector<
        std::variant<Counter T::*, SampleStat T::*, Histogram T::*>>
        members_;
};

/**
 * The registry. One per Simulation; enumerated in path order so
 * enumeration and JSON dumps are deterministic.
 *
 * Stats are stored per group, not per path: the registry keeps one
 * node per group prefix, and each node reads its sorted leaves through
 * a StatLeaves view, either the group's own or a shared StatTable.
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

    using Leaf = StatLeaves::Leaf;

    /** A resolved registration; stat is null when absent. */
    struct Entry
    {
        const void *stat = nullptr;
        StatKind kind = StatKind::Counter;
    };

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

    /** One group: its key, its leaves and the object they are read from. */
    struct Node
    {
        DirMap::iterator dir;
        Node *next = nullptr;
        const StatLeaves *leaves = nullptr;
        const void *base = nullptr;

        const std::string &key() const { return dir->first; }
    };

    /** A per-leaf group's own leaves, each holding its stat. */
    class OwnLeaves final : public StatLeaves
    {
      public:
        /** False if @p name is already a leaf. */
        bool
        add(const std::string &name, StatKind kind, const void *stat)
        {
            return insert({name, kind, 0, stat});
        }

        const void *
        stat(const Leaf &leaf, const void *) const override
        {
            return leaf.stat;
        }

        /**
         * The Dirs the dotted leaves landed in, for detach, with how
         * many landed in each run of adds.
         */
        std::vector<std::pair<DirMap::iterator, std::size_t>> landings;
    };

    /** The one rule turning a node's leaf into its stat. */
    static Entry
    entryOf(const Node &node, const Leaf &leaf)
    {
        return {node.leaves->stat(leaf, node.base), leaf.kind};
    }

    /**
     * Link @p node under @p key; a table's leaves come with it. Table
     * leaves are undotted, so only a group's own leaves land in
     * another Dir.
     */
    void attach(Node &node, std::string key, const StatLeaves *table,
                const void *base);
    /** Unlink @p node; @p own holds its leaves unless it has a table. */
    void detach(Node &node, const OwnLeaves *own);
    /** Add to @p node's @p own leaves (null: it has a table). */
    void addLeaf(Node &node, OwnLeaves *own, const std::string &leaf,
                 StatKind kind, const void *stat);

    // The rest expect m_ held.
    /**
     * Panic unless @p leaf of @p node names a free path; count it.
     * Returns the Dir a dotted leaf lands in, else dirs_.end().
     */
    DirMap::iterator claim(const Node &node, const std::string &leaf);
    /** The registration at @p path (stat null when absent). */
    Entry find(std::string_view path) const;
    template <typename T> const T *typed(std::string_view path,
                                         StatKind kind) const;
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

    /**
     * Bind to @p registry with @p prefix and register every leaf of
     * @p table as "<prefix>.<leaf>", read from @p stats. A table-bound
     * group takes no add().
     */
    template <typename T>
    void
    init(StatRegistry &registry, std::string prefix,
         const StatTable<T> &table, const T &stats)
    {
        bind(registry, std::move(prefix), &table, &stats);
    }

    bool bound() const { return registry_ != nullptr; }
    /** The bound prefix ("" when unbound). */
    std::string prefix() const;

    /** Register @p stat as "<prefix>.<leaf>". @pre bound(). */
    template <typename Stat>
    void
    add(const std::string &leaf, const Stat &stat)
    {
        registry_->addLeaf(node_, own_.get(), leaf, statKindOf<Stat>(),
                           &stat);
    }

    /** Unregister everything and unbind. */
    void clear();

  private:
    void bind(StatRegistry &registry, std::string prefix,
              const StatLeaves *table, const void *base);

    StatRegistry *registry_ = nullptr;
    StatRegistry::Node node_;
    /** The group's own leaves; null when it is bound to a table. */
    std::unique_ptr<StatRegistry::OwnLeaves> own_;
};

} // namespace qpip::sim
