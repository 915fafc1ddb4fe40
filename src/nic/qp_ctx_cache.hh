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
 * strict LRU over deterministic structures (intrusive list + ordered
 * map, never iterated), so replay and parallel-partition runs see
 * identical hit/miss sequences.
 *
 * Capacity is a count of context blocks, one per QP whatever its
 * service type: a RUD QP keeps its per-peer state in host memory, so
 * it holds one entry however many peers it talks to. A miss therefore
 * displaces at most one victim.
 *
 * A capacity of zero disables the model entirely: every touch hits
 * and nothing is ever charged, which is also the timing behaviour of
 * a warm cache that never overflows — the paper-config calibration
 * tests assert the two are byte-identical.
 */

#pragma once

#include <cstdint>
#include <list>
#include <map>

#include "nic/qp_state.hh"
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

    /** Room for @p capacity contexts; zero disables the model. */
    explicit QpContextCache(std::size_t capacity) : capacity_(capacity) {}

    bool enabled() const { return capacity_ > 0; }
    std::size_t size() const { return lru_.size(); }

    /**
     * Reference @p qp's context (any firmware stage that reads or
     * writes QP state). A resident context moves to the MRU position;
     * a non-resident one is fetched, displacing the LRU entry when
     * the cache is full. With the model disabled this is a no-op hit.
     */
    Touch
    touch(QpNum qp)
    {
        Touch t;
        if (!enabled())
            return t;
        auto it = index_.find(qp);
        if (it != index_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
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
        if (!enabled() || index_.count(qp) > 0)
            return t;
        insertMru(qp, t);
        return t;
    }

    /** Drop @p qp on destroy (no writeback — the state is dead). */
    void
    remove(QpNum qp)
    {
        auto it = index_.find(qp);
        if (it == index_.end())
            return;
        lru_.erase(it->second);
        index_.erase(it);
    }

    bool
    resident(QpNum qp) const
    {
        return !enabled() || index_.count(qp) > 0;
    }

    sim::Counter hits;
    sim::Counter misses;
    sim::Counter evictions;

  private:
    void
    insertMru(QpNum qp, Touch &t)
    {
        if (lru_.size() >= capacity_) {
            t.evicted = true;
            index_.erase(lru_.back());
            lru_.pop_back();
            evictions.inc();
        }
        lru_.push_front(qp);
        index_[qp] = lru_.begin();
    }

    std::size_t capacity_;
    /** MRU at front. */
    std::list<QpNum> lru_;
    /** Ordered by QP number; lookup only, never iterated. */
    std::map<QpNum, std::list<QpNum>::iterator> index_;
};

} // namespace qpip::nic
