/**
 * @file
 * The discrete-event scheduler at the heart of the simulation.
 *
 * Events are closures scheduled at an absolute Tick. Ties are broken
 * first by an explicit priority (lower runs first) and then by
 * insertion order, so the simulation is fully deterministic. Scheduled
 * events can be cancelled or rescheduled through an EventHandle,
 * which is how protocol timers (TCP retransmit, delayed ACK, ...) are
 * implemented.
 *
 * Hot-path design: event records live in a slab (a deque of
 * fixed-position records) recycled through a LIFO freelist, and the
 * closure is stored inline in the record (EventFn) — the
 * schedule/cancel/fire cycle performs no heap allocation once the
 * slab has grown to the workload's steady-state event population.
 * Handles are generation-counted (slot, gen) pairs instead of
 * shared_ptr, so copying one is trivial and a stale handle on a
 * recycled slot is detected by the generation mismatch. The freelist
 * is LIFO in heap-pop order, which is itself deterministic, so slot
 * assignment never perturbs replay.
 *
 * EventHandles must not outlive the EventQueue they came from (in
 * practice: the Simulation outlives the SimObjects built against it).
 *
 * Parked work: a component whose next events are a chain it can
 * compute without running them (a spin-polling CPU whose completion
 * queue is empty) parks instead of scheduling them. It is settled
 * lazily, when something could tell the difference; see Parked.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace qpip::sim {

/** Default event priority; smaller values run earlier within a tick. */
constexpr int defaultPriority = 0;

namespace detail {

/**
 * A move-in, invoke-once callable slot with inline storage. Closures
 * up to inlineBytes are constructed in place inside the event record;
 * larger ones (rare) fall back to one heap allocation. Unlike
 * std::function this never allocates for the common simulator
 * closures (a `this` pointer plus a few captured values).
 */
class EventFn
{
  public:
    EventFn() = default;
    EventFn(const EventFn &) = delete;
    EventFn &operator=(const EventFn &) = delete;
    ~EventFn() { reset(); }

    /** Construct a callable in place (destroys any previous one). */
    template <typename F>
    void
    emplace(F &&fn)
    {
        using Fn = std::decay_t<F>;
        reset();
        if constexpr (sizeof(Fn) <= inlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            ::new (static_cast<void *>(storage_))
                Fn(std::forward<F>(fn));
            invoke_ = [](void *p) { (*static_cast<Fn *>(p))(); };
            destroy_ = [](void *p) { static_cast<Fn *>(p)->~Fn(); };
            heap_ = nullptr;
        } else {
            heap_ = new Fn(std::forward<F>(fn));
            invoke_ = [](void *p) { (*static_cast<Fn *>(p))(); };
            destroy_ = [](void *p) { delete static_cast<Fn *>(p); };
        }
    }

    /** Destroy the held callable, if any. */
    void
    reset()
    {
        if (invoke_ == nullptr)
            return;
        // Clear before destroying: the destructor may re-enter the
        // event queue (closures owning resources that cancel timers).
        auto *destroy = destroy_;
        void *target = heap_ != nullptr ? heap_ : storage_;
        invoke_ = nullptr;
        destroy_ = nullptr;
        heap_ = nullptr;
        destroy(target);
    }

    explicit operator bool() const { return invoke_ != nullptr; }

    void
    operator()()
    {
        invoke_(heap_ != nullptr ? heap_ : storage_);
    }

    /** Inline capacity, sized for the datapath's largest closures. */
    static constexpr std::size_t inlineBytes = 128;

  private:
    alignas(std::max_align_t) unsigned char storage_[inlineBytes];
    void (*invoke_)(void *) = nullptr;
    void (*destroy_)(void *) = nullptr;
    void *heap_ = nullptr;
};

/** Lifecycle of a slab slot. */
enum class EventState : std::uint8_t {
    Free,      ///< on the freelist
    Pending,   ///< scheduled, in the heap
    Cancelled, ///< cancelled, heap entry not yet popped
    Running,   ///< popped and executing (slot freed afterwards)
    Held,      ///< stored by hold(), not scheduled yet
};

/** One slab slot: bookkeeping for one scheduled event. */
struct EventRecord
{
    Tick when = 0;
    int priority = defaultPriority;
    std::uint64_t seq = 0;
    std::uint32_t gen = 0;
    EventState state = EventState::Free;
    EventFn fn;
};

} // namespace detail

class EventQueue;

/**
 * The links of a parked chain that one settle ran: a first link with a
 * real (when, seq) key, then @p gridCount links, each scheduled by the
 * one before, at gridStart, gridStart + gridStep, ... The queue orders
 * the chains a settle ran by when their last links ran and reserves
 * each chain's next sequence number in that order, into *nextSeq.
 */
struct ParkedChain
{
    Tick firstWhen;
    std::uint64_t firstSeq;
    Tick gridStart;
    Tick gridStep;
    std::uint64_t gridCount;
    std::uint64_t *nextSeq;

    /** Tick of the chain's @p i-th link (0 = the first). */
    Tick
    at(std::uint64_t i) const
    {
        return i == 0 ? firstWhen : gridStart + (i - 1) * gridStep;
    }
};

/**
 * Where parked work stands after a settle: the tick its next owed link
 * is due at (maxTick: nothing parked), and a bound on where the next
 * owed links lie however much time passes before the next settle: at
 * or below reach, or at most span after now().
 */
struct ParkedState
{
    Tick due = maxTick;
    Tick reach = 0;
    Tick span = 0;
};

/**
 * Work that would be a chain of events, each run at defaultPriority
 * and scheduling the next, that the owner can run arithmetically
 * instead: a parked spin-polling CPU (host::CpuModel). The owner
 * registers with EventQueue::setParked(). The queue settles every parked
 * work together (settleNow()) before anything could tell the links
 * did not run as events: the owner's own touches, and scheduling an
 * event on a tick an owed link may sit on.
 */
class Parked
{
  public:
    /**
     * Run every owed link whose (when, defaultPriority, seq) key is
     * below (@p when, @p priority, @p seq), appending one ParkedChain
     * per chain that ran. Neither schedules nor parks.
     */
    virtual ParkedState settle(Tick when, int priority,
                               std::uint64_t seq,
                               std::vector<ParkedChain> &chains) = 0;

    /** Drop everything owed without running it (EventQueue::clear). */
    virtual void drop() = 0;

  protected:
    ~Parked() = default;
};

/**
 * A cancellable reference to a scheduled event. Default-constructed
 * handles are inert. Handles are trivially copyable (slot index plus
 * generation); cancelling any copy cancels the event. A handle whose
 * event has run or been cancelled — or whose slot was recycled for a
 * newer event — reports !pending() and when() == maxTick.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    /** @return true if the event is still pending (not run/cancelled). */
    bool pending() const;

    /** Cancel the event if it has not run yet. Safe to call anytime. */
    void cancel();

    /** Scheduled expiry tick; maxTick once run/cancelled/inert. */
    Tick when() const;

  private:
    friend class EventQueue;
    EventHandle(EventQueue *q, std::uint32_t slot, std::uint32_t gen)
        : queue_(q), slot_(slot), gen_(gen)
    {}

    EventQueue *queue_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint32_t gen_ = 0;
};

/**
 * A deterministic priority-queue event scheduler.
 */
class EventQueue
{
  public:
    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p fn (any void() callable) to run at absolute time
     * @p when. The callable is stored inline in the pooled event
     * record; no allocation happens for closures that fit
     * detail::EventFn::inlineBytes.
     * @pre when >= now()
     */
    template <typename F>
    EventHandle
    schedule(Tick when, F &&fn, int priority = defaultPriority)
    {
        if (clearing_)
            return EventHandle{}; // teardown in progress: drop silently
        checkSchedulable(when);
        // If an owed link whose predecessor has run could sit on this
        // tick, it comes first: settle so its seq is reserved now.
        if (parkedDue_ != maxTick &&
            (when <= parkedReach_ || when - now_ <= parkedSpan_))
            [[unlikely]]
            settleNow();
        const std::uint32_t slot = acquireSlot();
        detail::EventRecord &rec = slab_[slot];
        rec.when = when;
        rec.priority = priority;
        rec.seq = nextSeq_++;
        rec.state = detail::EventState::Pending;
        rec.fn.emplace(std::forward<F>(fn));
        heapPush(HeapEntry{when, priority, rec.seq, slot});
        return EventHandle(this, slot, rec.gen);
    }

    /** Schedule @p fn to run @p delay ticks from now. */
    template <typename F>
    EventHandle
    scheduleIn(Tick delay, F &&fn, int priority = defaultPriority)
    {
        return schedule(now_ + delay, std::forward<F>(fn), priority);
    }

    /**
     * Store @p fn in an event record without scheduling it: a parked
     * chain's next link, run by release() or destroyed by discard().
     * @return the record's slot.
     */
    template <typename F>
    std::uint32_t
    hold(F &&fn)
    {
        const std::uint32_t slot = acquireSlot();
        detail::EventRecord &rec = slab_[slot];
        rec.state = detail::EventState::Held;
        rec.fn.emplace(std::forward<F>(fn));
        return slot;
    }

    /**
     * Schedule the held event in @p slot at (@p when, defaultPriority,
     * @p seq), @p seq taken earlier with reserveSeq(): the link runs in
     * the place its chain gave it. @pre when >= now()
     */
    void release(std::uint32_t slot, Tick when, std::uint64_t seq);

    /** Destroy the held event in @p slot without running it. */
    void discard(std::uint32_t slot) { releaseSlot(slot); }

    /**
     * Take the next sequence number, as scheduling an event now would.
     */
    std::uint64_t reserveSeq() { return nextSeq_++; }

    /**
     * Register parked @p work, or update where it stands (state.due ==
     * maxTick: unregister). Parked work is not an event: it does not
     * count for empty() or nextEventTick(), and clear() drops it.
     */
    void setParked(Parked *work, ParkedState state);

    /**
     * Settle every parked work up to the event running now (after a
     * run: up to where the run stopped), as if its owed links had run
     * as events.
     */
    void
    settleNow()
    {
        if (parkedDue_ <= cur_.when)
            settleBefore(cur_.when, cur_.priority, cur_.seq);
    }

    /**
     * Settle parked work owed below @p until and advance now() to the
     * last link that ran, as a run stopped at @p until would leave it.
     * Called at the end of every bounded run (runUntil, advanceTo).
     */
    void settle(Tick until);

    /** @return true if no runnable events remain. */
    bool empty() const;

    /** Tick of the next runnable event, or maxTick if none. */
    Tick nextEventTick() const;

    /**
     * The earlier of nextEventTick() and the next link parked work
     * owes: the first tick this queue has anything to do at. The
     * parallel engine bounds its epochs by it, as it bounded them by
     * the poll events parked spinners replace.
     */
    Tick
    nextDueTick() const
    {
        return std::min(nextEventTick(), parkedDue_);
    }

    /**
     * Run events until the queue drains or @p until is reached.
     * Events scheduled exactly at @p until do not run; now() advances
     * to min(until, drain time).
     * @return number of events executed.
     */
    std::uint64_t runUntil(Tick until);

    /** Run until the queue fully drains. @return events executed. */
    std::uint64_t run() { return runUntil(maxTick); }

    /**
     * Advance the clock to @p t without running anything — how the
     * parallel engine brings idle partitions up to their last epoch
     * bound when a run call returns: a partition with no event below
     * that bound still owns the time, so later schedule() calls must
     * be measured against it. maxTick is
     * ignored (mirroring runUntil); skipping a runnable event would
     * corrupt causality and panics.
     */
    void advanceTo(Tick t);

    /**
     * Run a single event if one is runnable before @p until.
     * @return true if an event ran.
     */
    bool
    step(Tick until = maxTick)
    {
        skipCancelled();
        if (heap_.empty() || heap_.front().when >= until)
            return false;
        cur_ = heap_.front();
        const std::uint32_t slot = cur_.slot;
        heapPop();
        detail::EventRecord &rec = slab_[slot];
        now_ = rec.when;
        rec.state = detail::EventState::Running;
        ++executed_;
        rec.fn();
        // Release only after the closure returns: it may schedule new
        // events, and this slot must not be handed out while running.
        releaseSlot(slot);
        return true;
    }

    /** Number of events executed since construction. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Discard every pending event without running it. Destroying the
     * dropped closures may release resources that try to schedule
     * further events; those are silently discarded too. Use this to
     * break reference cycles before tearing down the objects the
     * closures point at.
     */
    void clear();

    /**
     * Partition-local mode: label this queue with its owning
     * partition's name so scheduling diagnostics identify the shard
     * (the global queue stays unlabelled).
     */
    void setLabel(std::string label) { label_ = std::move(label); }
    const std::string &label() const { return label_; }

    /** Slab capacity in records (diagnostics/tests). */
    std::size_t slabSize() const { return slab_.size(); }

    /** Free records ready for reuse (diagnostics/tests). */
    std::size_t freeSlots() const { return freelist_.size(); }

  private:
    friend class EventHandle;

    /** Heap entry: ordering key plus the slab slot it refers to. */
    struct HeapEntry
    {
        Tick when;
        int priority;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /**
     * (when, priority, seq) is a strict total order (seq is unique),
     * so the pop sequence is the same for any correct heap — the heap
     * arity and layout are free to change without affecting replay.
     */
    static bool
    earlier(const HeapEntry &a, const HeapEntry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.priority != b.priority)
            return a.priority < b.priority;
        return a.seq < b.seq;
    }

    /** A registered Parked and where it stands. */
    struct ParkedEntry
    {
        Parked *work;
        ParkedState state;
    };

    /**
     * Settle every parked work owed below (when, priority, seq), then
     * reserve the sequence numbers of the chains' next links in the
     * order their last links ran. @return the tick of the last link
     * that ran, or 0 if none did.
     */
    Tick settleBefore(Tick when, int priority, std::uint64_t seq);

    /** Recompute parkedDue_, parkedReach_ and parkedSpan_. */
    void refreshParked();

    /**
     * The heap is 4-ary: half the levels of a binary heap, and the
     * four children share cache lines, which is what the event loop's
     * pop-push cadence is bound by.
     */
    void
    heapPush(const HeapEntry &e)
    {
        std::size_t i = heap_.size();
        heap_.push_back(e);
        while (i > 0) {
            const std::size_t parent = (i - 1) >> 2;
            if (!earlier(heap_[i], heap_[parent]))
                break;
            std::swap(heap_[i], heap_[parent]);
            i = parent;
        }
    }

    /** Remove the minimum (heap_.front()). Hole-based sift-down. */
    void
    heapPop()
    {
        const HeapEntry last = heap_.back();
        heap_.pop_back();
        const std::size_t n = heap_.size();
        if (n == 0)
            return;
        std::size_t i = 0;
        for (;;) {
            const std::size_t child = (i << 2) + 1;
            if (child >= n)
                break;
            std::size_t best = child;
            const std::size_t end = child + 4 < n ? child + 4 : n;
            for (std::size_t c = child + 1; c < end; ++c) {
                if (earlier(heap_[c], heap_[best]))
                    best = c;
            }
            if (!earlier(heap_[best], last))
                break;
            heap_[i] = heap_[best];
            i = best;
        }
        heap_[i] = last;
    }

    /** Panics when @p when is in the past (out-of-line: cold path). */
    [[noreturn]] void panicPast(Tick when) const;

    void
    checkSchedulable(Tick when) const
    {
        if (when < now_) [[unlikely]]
            panicPast(when);
    }

    /** Pop a free slot, growing the slab if the freelist is empty. */
    std::uint32_t
    acquireSlot()
    {
        if (!freelist_.empty()) {
            const std::uint32_t slot = freelist_.back();
            freelist_.pop_back();
            return slot;
        }
        slab_.emplace_back();
        return static_cast<std::uint32_t>(slab_.size() - 1);
    }

    /**
     * Return @p slot to the freelist: bump the generation (so stale
     * handles die), destroy the closure, then make it reusable. Only
     * called once the slot's heap entry has been popped.
     */
    void
    releaseSlot(std::uint32_t slot)
    {
        detail::EventRecord &rec = slab_[slot];
        ++rec.gen;
        rec.state = detail::EventState::Free;
        rec.fn.reset(); // may re-enter (see EventFn::reset)
        freelist_.push_back(slot);
    }

    /** Drop cancelled events sitting at the head of the heap. */
    void
    skipCancelled()
    {
        while (!heap_.empty()) {
            const std::uint32_t slot = heap_.front().slot;
            if (slab_[slot].state != detail::EventState::Cancelled)
                break;
            heapPop();
            releaseSlot(slot);
        }
    }

    // Handle plumbing (slot validity checked via generation).
    bool handlePending(std::uint32_t slot, std::uint32_t gen) const;
    void handleCancel(std::uint32_t slot, std::uint32_t gen);
    Tick handleWhen(std::uint32_t slot, std::uint32_t gen) const;

    std::vector<HeapEntry> heap_;
    /** Registered parked work; a handful of entries, scanned linearly. */
    std::vector<ParkedEntry> parked_;
    /** The earliest owed link of any parked work (maxTick: none). */
    Tick parkedDue_ = maxTick;
    /** Maxima of the entries' reach and span. */
    Tick parkedReach_ = 0;
    Tick parkedSpan_ = 0;
    /**
     * Key of the event running now, or of the last one run; after a
     * bounded run, (bound, INT_MIN): parked work is settled below it.
     */
    HeapEntry cur_{0, std::numeric_limits<int>::min(), 0, 0};
    /** Scratch for settleBefore. */
    std::vector<ParkedChain> chains_;
    std::deque<detail::EventRecord> slab_;
    std::vector<std::uint32_t> freelist_;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    bool clearing_ = false;
    std::string label_;
};

inline bool
EventHandle::pending() const
{
    return queue_ != nullptr && queue_->handlePending(slot_, gen_);
}

inline void
EventHandle::cancel()
{
    if (queue_ != nullptr)
        queue_->handleCancel(slot_, gen_);
}

inline Tick
EventHandle::when() const
{
    return queue_ != nullptr ? queue_->handleWhen(slot_, gen_)
                             : maxTick;
}

} // namespace qpip::sim
