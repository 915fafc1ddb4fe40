/**
 * @file
 * Partitions and mailboxes: the sharding primitives of the
 * deterministic parallel engine (see parallel_engine.hh).
 *
 * A Partition owns a private EventQueue and a private Random stream,
 * and belongs to one worker thread for the engine's whole life, so
 * everything bound to it runs single-threaded. Cross-partition
 * communication goes through Mailbox: the source partition appends
 * closures to the edge's post buffer and its owner sorts the batch
 * while still inside the parallel region; at the epoch barrier the
 * engine hands every posted batch to its destination, whose owner
 * merges its inbound batches into its queue in one deterministic
 * (tick, priority, seq, source partition id) pass before running it —
 * so the resulting schedule is independent of thread count and
 * interleaving.
 *
 * Every edge carries its own lookahead (the minimum delivery latency
 * of that link), and every partition carries the horizon of the epoch
 * it is currently running. A post below the *destination's* horizon
 * means the destination may already have executed past the delivery
 * tick — a causality violation — and panics with enough context to
 * debug at thousand-host scale.
 *
 * The thread-local ExecContext lets objects constructed *while a
 * partition is executing* (e.g. a TCP connection spun up by an
 * accept) bind to the creating partition's queue and RNG instead of
 * the simulation-global ones.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/types.hh"

namespace qpip::sim {

class Mailbox;
class ParallelEngine;

/**
 * Which partition (if any) the current thread is executing: the event
 * queue and RNG stream that SimObjects constructed on this thread
 * bind to.
 */
struct ExecContext
{
    EventQueue *eq = nullptr;
    Random *rng = nullptr;
};

namespace detail {

/** The calling thread's execution context (nullptr outside epochs). */
ExecContext *currentExecContext();
void setCurrentExecContext(ExecContext *ctx);

} // namespace detail

/** RAII installer for the thread-local ExecContext. */
class ExecContextScope
{
  public:
    explicit ExecContextScope(ExecContext *ctx)
        : prev_(detail::currentExecContext())
    {
        detail::setCurrentExecContext(ctx);
    }

    ~ExecContextScope() { detail::setCurrentExecContext(prev_); }

    ExecContextScope(const ExecContextScope &) = delete;
    ExecContextScope &operator=(const ExecContextScope &) = delete;

  private:
    ExecContext *prev_;
};

/**
 * One shard of the simulation: a private event-queue slab plus a
 * private RNG stream.
 */
class Partition
{
  public:
    /**
     * @p horizons is the engine's per-partition frontier array, which
     * epochHorizon() reads at index @p id.
     */
    Partition(std::uint32_t id, std::string name, std::uint64_t seed,
              const std::vector<Tick> &horizons);

    Partition(const Partition &) = delete;
    Partition &operator=(const Partition &) = delete;

    std::uint32_t id() const { return id_; }
    const std::string &name() const { return name_; }

    EventQueue &eventQueue() { return eq_; }
    Random &rng() { return rng_; }
    ExecContext &execContext() { return ctx_; }

    /** Next mailbox message sequence number (deterministic). */
    std::uint64_t nextMailSeq() { return mailSeq_++; }

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
    Random rng_;
    ExecContext ctx_;
    std::uint64_t mailSeq_ = 0;
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
 * owner may post; posts accumulate in a local post buffer with no
 * synchronization, and the owner sorts the batch when it finishes
 * running the source. The engine's barrier swaps the post buffer with
 * the (empty) handed-over buffer, so the destination's owner can
 * inject one batch while the source keeps posting the next. Posted
 * timestamps must be at or beyond the *destination's* epoch horizon —
 * that is exactly the conservative lookahead guarantee the engine's
 * synchronization window rests on, so a violation is a simulator bug
 * and panics.
 */
class Mailbox
{
  public:
    Mailbox(Partition &src, Partition &dst) : src_(src), dst_(dst) {}

    Mailbox(const Mailbox &) = delete;
    Mailbox &operator=(const Mailbox &) = delete;

    Partition &src() { return src_; }
    Partition &dst() { return dst_; }

    /**
     * Declare this edge's lookahead: a lower bound on the delivery
     * latency of every message posted through it (for a link edge,
     * the link's propagation delay). Edges that never declare one
     * inherit the engine's global lookahead. When several physical
     * links share the edge, declare the minimum. @pre l >= 1 tick.
     */
    void
    setLookahead(Tick l)
    {
        if (l == 0)
            panic("Mailbox %s->%s: edge lookahead must be at least "
                  "one tick",
                  src_.name().c_str(), dst_.name().c_str());
        lookahead_ = l;
    }

    /** The declared edge lookahead (maxTick until resolved). */
    Tick lookahead() const { return lookahead_; }

    /** Post a closure for delivery at @p when in the destination. */
    template <typename F>
    void
    post(Tick when, int priority, F &&fn)
    {
        if (when < dst_.epochHorizon()) [[unlikely]]
            panicBelowHorizon(when);
        if (msgs_.empty())
            src_.dirtyOut_.push_back(this);
        msgs_.push_back(Msg{when, priority, src_.nextMailSeq(),
                            std::function<void()>(std::forward<F>(fn))});
    }

  private:
    friend class ParallelEngine;

    struct Msg
    {
        Tick when;
        int priority;
        std::uint64_t seq;
        std::function<void()> fn;
    };

    /**
     * Sort the post buffer by (when, priority, seq) — a strict total
     * order, seq streams are per-source. Called by the source's owner
     * after running it, and at the start of a run call for batches
     * posted outside an epoch (an O(n) is_sorted check first).
     */
    void sortBatch();

    [[noreturn]] void panicBelowHorizon(Tick when) const;

    Partition &src_;
    Partition &dst_;
    /** This edge's lookahead; maxTick = inherit the engine global. */
    Tick lookahead_ = maxTick;
    /** Post buffer: written by the source's owner. */
    std::vector<Msg> msgs_;
    /** The batch handed to the destination, read by its owner. */
    std::vector<Msg> handed_;
};

} // namespace qpip::sim
