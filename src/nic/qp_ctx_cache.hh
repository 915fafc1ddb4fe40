/**
 * @file
 * The QP context cache: models the LANai's on-board SRAM as a finite
 * home for QP state blocks. The prototype keeps every QP context
 * resident (its workloads use a handful of QPs); at SAN server scale
 * the working set outgrows the SRAM and each touch of a non-resident
 * QP costs a host-memory fetch plus a writeback of the context it
 * displaces. Every firmware stage that touches a context updates it,
 * so no resident copy is ever clean and the cache tracks no dirty
 * bits: every eviction owes exactly one writeback. The cache is a
 * strict LRU kept as an intrusive doubly linked list threaded through
 * a vector indexed by QP number (QP numbers are dense and never
 * reused), so a touch is O(1) and involves no hashing or RNG: replay
 * and parallel-partition runs see identical hit/miss sequences.
 *
 * Capacity is a count of context blocks, one per QP whatever its
 * service type: a RUD QP keeps its per-peer state in host memory, so
 * it holds one entry however many peers it talks to. A miss therefore
 * displaces at most one victim.
 *
 * There is one accounting mode. The paper's workloads use a handful
 * of QPs: the management FSM warm-installs each context at creation,
 * the default capacity never overflows, and so nothing is ever
 * charged (the occupancy tests assert zero misses, evictions and
 * CtxFetch charges there).
 */

#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "nic/qp_state.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace qpip::nic {

/**
 * Deterministic LRU set of resident QP contexts.
 */
class QpContextCache
{
  public:
    /** Result of touching (or installing) one QP context. */
    struct Touch
    {
        bool hit = true;
        /** A victim was displaced and owes its writeback. */
        bool evicted = false;
    };

    /** Room for @p capacity contexts (at least one). */
    explicit QpContextCache(std::size_t capacity) : capacity_(capacity)
    {
        if (capacity == 0)
            sim::panic("QpContextCache: capacity must be at least 1");
    }

    std::size_t size() const { return size_; }

    /**
     * Reference @p qp's context (any firmware stage that reads or
     * writes QP state). A resident context moves to the MRU position;
     * a non-resident one is fetched, displacing the LRU entry when
     * the cache is full.
     */
    Touch
    touch(QpNum qp)
    {
        Touch t;
        if (resident(qp)) {
            unlink(qp);
            linkMru(qp);
            hits.inc();
            return t;
        }
        t.hit = false;
        insertMru(qp, t);
        misses.inc();
        return t;
    }

    /**
     * Install @p qp at creation time (the management FSM warms the
     * context it just built). Unlike touch() this counts nothing but
     * the eviction it may force.
     */
    Touch
    install(QpNum qp)
    {
        Touch t;
        if (resident(qp))
            return t;
        insertMru(qp, t);
        return t;
    }

    /** Drop @p qp on destroy (no writeback — the state is dead). */
    void
    remove(QpNum qp)
    {
        if (!resident(qp))
            return;
        unlink(qp);
        --size_;
    }

    bool
    resident(QpNum qp) const
    {
        return qp < links_.size() && links_[qp].resident;
    }

    sim::Counter hits;
    sim::Counter misses;
    sim::Counter evictions;

  private:
    static constexpr QpNum none = std::numeric_limits<QpNum>::max();

    /** One QP's place in the MRU list; unused while not resident. */
    struct Link
    {
        QpNum prev = none; ///< towards the MRU end
        QpNum next = none; ///< towards the LRU end
        bool resident = false;
    };

    void
    insertMru(QpNum qp, Touch &t)
    {
        if (size_ >= capacity_) {
            t.evicted = true;
            unlink(lru_);
            --size_;
            evictions.inc();
        }
        if (qp >= links_.size())
            links_.resize(static_cast<std::size_t>(qp) + 1);
        linkMru(qp);
        ++size_;
    }

    void
    linkMru(QpNum qp)
    {
        Link &l = links_[qp];
        l.resident = true;
        l.prev = none;
        l.next = mru_;
        if (mru_ != none)
            links_[mru_].prev = qp;
        else
            lru_ = qp;
        mru_ = qp;
    }

    void
    unlink(QpNum qp)
    {
        Link &l = links_[qp];
        if (l.prev != none)
            links_[l.prev].next = l.next;
        else
            mru_ = l.next;
        if (l.next != none)
            links_[l.next].prev = l.prev;
        else
            lru_ = l.prev;
        l = Link{};
    }

    std::size_t capacity_;
    std::size_t size_ = 0;
    QpNum mru_ = none;
    QpNum lru_ = none;
    /** Indexed by QP number; grows to the highest number touched. */
    std::vector<Link> links_;
};

} // namespace qpip::nic
