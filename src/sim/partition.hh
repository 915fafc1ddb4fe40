/**
 * @file
 * Partitions and mailboxes: the sharding primitives of the
 * deterministic parallel engine (see parallel_engine.hh).
 *
 * A Partition owns a private EventQueue and belongs to one worker
 * thread for the engine's whole life, so everything bound to it runs
 * single-threaded. It owns no randomness: objects draw from their
 * own streams (see random.hh), whichever partition runs them.
 * Cross-partition communication goes through Mailbox: the source
 * partition appends keyed closures to the edge's post buffer; at the
 * epoch barrier the engine hands every posted batch to its
 * destination, whose owner schedules each message under the key its
 * sender gave it (EventKey) before running the queue. The key alone
 * fixes where the message runs, so neither the order of the posts nor
 * the thread count nor the interleaving can move it.
 *
 * Every edge carries its own lookahead, declared when its mailbox is
 * created (the minimum delivery latency of the links it carries), and
 * every partition carries the horizon of the epoch it is currently
 * running. A post below the *destination's* horizon means the
 * destination may already have executed past the delivery tick — a
 * causality violation — and panics with enough context to debug at
 * thousand-host scale.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace qpip::sim {

class Mailbox;
class ParallelEngine;

/**
 * One shard of the simulation: a private event-queue slab.
 */
class Partition
{
  public:
    /**
     * @p horizons is the engine's per-partition frontier array, which
     * epochHorizon() reads at index @p id.
     */
    Partition(std::uint32_t id, std::string name,
              const std::vector<Tick> &horizons);

    Partition(const Partition &) = delete;
    Partition &operator=(const Partition &) = delete;

    std::uint32_t id() const { return id_; }
    const std::string &name() const { return name_; }

    /** Rename, and relabel the queue (a group taking partition 0). */
    void rename(std::string name);

    EventQueue &eventQueue() { return eq_; }

    /**
     * This partition's safe frontier (engine-set at each barrier):
     * the monotone maximum of every epoch bound the engine has ever
     * computed for it. The partition's clock never exceeds it, no
     * cross-partition message may be addressed below it, and each
     * epoch runs it to min(frontier, run deadline). Monotone on
     * purpose: the per-epoch bound itself can dip (the conservative
     * floor of a neighbor drops when an injection wakes the neighbor
     * early), but a bound once proven stays proven — every future
     * post still arrives at or beyond it.
     */
    Tick epochHorizon() const { return (*horizons_)[id_]; }

  private:
    friend class Mailbox;
    friend class ParallelEngine;

    std::uint32_t id_;
    std::string name_;
    EventQueue eq_;
    /**
     * The engine's flat frontier array: written by the coordinator
     * between epochs, read by posters to this partition during them.
     */
    const std::vector<Tick> *horizons_;
    /**
     * Outgoing mailboxes with pending posts: appended by this
     * partition's owner during an epoch, drained by the engine's
     * barrier between them. Lets the barrier visit only the edges
     * that were actually posted to.
     */
    std::vector<Mailbox *> dirtyOut_;
    /**
     * Incoming mailboxes whose batch the barrier handed over:
     * appended by the barrier, drained by this partition's owner when
     * it injects them at the start of its next visit.
     */
    std::vector<Mailbox *> inbox_;
};

/**
 * A one-way cross-partition channel. Only the source partition's
 * owner may post; posts accumulate, in any order, in a local post
 * buffer with no synchronization. The engine's barrier swaps the post
 * buffer with the (empty) handed-over buffer, so the destination's
 * owner can inject one batch while the source keeps posting the next.
 * Posted timestamps must be at or beyond the *destination's* epoch
 * horizon — that is exactly the conservative lookahead guarantee the
 * engine's synchronization window rests on, so a violation is a
 * simulator bug and panics.
 */
class Mailbox
{
  public:
    /**
     * @p lookahead is this edge's lookahead: a lower bound on the
     * delivery latency of every message posted through it (for a link
     * edge, the link's propagation delay plus its serialization
     * floor). @pre lookahead >= 1 tick.
     */
    Mailbox(Partition &src, Partition &dst, Tick lookahead);

    Mailbox(const Mailbox &) = delete;
    Mailbox &operator=(const Mailbox &) = delete;

    Partition &src() { return src_; }
    Partition &dst() { return dst_; }

    /** The edge lookahead: the minimum any declaration gave it. */
    Tick lookahead() const { return lookahead_; }

    /**
     * Post a closure for delivery in the destination under @p key,
     * which its sender's source handed out.
     */
    template <typename F>
    void
    post(const EventKey &key, F &&fn)
    {
        if (key.when < dst_.epochHorizon()) [[unlikely]]
            panicBelowHorizon(key.when);
        if (msgs_.empty())
            src_.dirtyOut_.push_back(this);
        first_ = std::min(first_, key.when);
        Msg &m = msgs_.emplace_back();
        m.key = key;
        m.fn.emplace(std::forward<F>(fn));
    }

  private:
    friend class ParallelEngine;

    /**
     * One posted event. The closure is built once, in fn, and moved
     * from here into the destination's event record: never wrapped
     * again, never copied.
     */
    struct Msg
    {
        EventKey key;
        detail::EventFn fn;
    };

    [[noreturn]] void panicBelowHorizon(Tick when) const;

    Partition &src_;
    Partition &dst_;
    /** Lowered by ParallelEngine::mailbox() when redeclared. */
    Tick lookahead_;
    /** Post buffer: written by the source's owner. */
    std::vector<Msg> msgs_;
    /** Earliest tick in the post buffer (maxTick: empty). */
    Tick first_ = maxTick;
    /** The batch handed to the destination, read by its owner. */
    std::vector<Msg> handed_;
};

} // namespace qpip::sim
