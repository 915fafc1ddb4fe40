/**
 * @file
 * The discrete-event scheduler at the heart of the simulation.
 *
 * Events are closures scheduled at an absolute Tick. Each carries an
 * EventKey, (when, priority, source, seq), and runs in key order:
 * earlier tick first, then lower priority, then the lower source id,
 * then the source's own count of the events it scheduled. The source
 * is whatever scheduled the event — a SimObject, or one direction of
 * a link (EventSource) — and its id comes from construction order, so
 * the key of every event is fixed by the simulated history alone, not
 * by which queue holds it or when it was inserted. That is what lets
 * a partitioned run (parallel_engine.hh) replay the serial schedule:
 * each partition's queue runs the restriction of the one serial order.
 * Every event has a source: a queue takes only keyed events.
 *
 * Scheduled events can be cancelled or rescheduled through an
 * EventHandle, which is how protocol timers (TCP retransmit, delayed
 * ACK, ...) are implemented.
 *
 * Hot-path design: event records live in a slab (a deque of
 * fixed-position records) recycled through a LIFO freelist, and the
 * closure is stored inline in the record (EventFn) — the
 * schedule/cancel/fire cycle performs no heap allocation once the
 * slab has grown to the workload's steady-state event population.
 * Handles are generation-counted (slot, gen) pairs instead of
 * shared_ptr, so copying one is trivial and a stale handle on a
 * recycled slot is detected by the generation mismatch. Slot
 * assignment has no say in the order events run in.
 *
 * Cancel means gone: a dense slot -> heap-position index beside the
 * slab lets cancel() erase the event's heap entry at once and return
 * its slot to the freelist, so the heap holds exactly the pending
 * events. Protocol timers that are re-armed on every ACK leave no dead
 * entries behind.
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
 * A move-only, invoke-once callable slot with inline storage. Closures
 * up to inlineBytes are constructed in place; larger ones (rare) fall
 * back to one heap allocation, whose pointer the storage holds.
 * Unlike std::function this never allocates for the common simulator
 * closures (a `this` pointer plus a few captured values), and moving
 * one relocates the closure it holds rather than wrapping it again:
 * a mailbox message carries one from the post to the event record
 * that runs it.
 */
class EventFn
{
  public:
    EventFn() = default;
    EventFn(EventFn &&other) noexcept { adopt(other); }
    EventFn &
    operator=(EventFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            adopt(other);
        }
        return *this;
    }
    EventFn(const EventFn &) = delete;
    EventFn &operator=(const EventFn &) = delete;
    ~EventFn() { reset(); }

    /**
     * Construct a callable in place (destroys any previous one). An
     * EventFn rvalue is adopted, not wrapped.
     */
    template <typename F>
    void
    emplace(F &&fn)
    {
        using Fn = std::decay_t<F>;
        if constexpr (std::is_same_v<Fn, EventFn>) {
            static_assert(!std::is_lvalue_reference_v<F>,
                          "an EventFn is adopted from an rvalue");
            *this = std::move(fn);
        } else if constexpr (sizeof(Fn) <= inlineBytes &&
                             alignof(Fn) <= alignof(std::max_align_t)) {
            reset();
            ::new (static_cast<void *>(storage_))
                Fn(std::forward<F>(fn));
            invoke_ = [](void *p) { (*static_cast<Fn *>(p))(); };
            manage_ = [](Op op, void *from, void *to) {
                auto *f = static_cast<Fn *>(from);
                if (op == Op::Relocate)
                    ::new (to) Fn(std::move(*f));
                f->~Fn();
            };
        } else {
            reset();
            ::new (static_cast<void *>(storage_))
                Fn *(new Fn(std::forward<F>(fn)));
            invoke_ = [](void *p) { (**static_cast<Fn **>(p))(); };
            manage_ = [](Op op, void *from, void *to) {
                Fn *f = *static_cast<Fn **>(from);
                if (op == Op::Relocate)
                    ::new (to) Fn *(f);
                else
                    delete f;
            };
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
        auto *manage = manage_;
        invoke_ = nullptr;
        manage_ = nullptr;
        manage(Op::Destroy, storage_, nullptr);
    }

    explicit operator bool() const { return invoke_ != nullptr; }

    void operator()() { invoke_(storage_); }

    /** Inline capacity, sized for the datapath's largest closures. */
    static constexpr std::size_t inlineBytes = 128;

  private:
    /** What manage_ does with the callable at `from`. */
    enum class Op : std::uint8_t {
        Destroy,  ///< destroy it
        Relocate, ///< move it to `to`, then destroy the original
    };

    /** Take @p other's callable, leaving it empty. @pre empty. */
    void
    adopt(EventFn &other) noexcept
    {
        if (other.invoke_ == nullptr)
            return;
        other.manage_(Op::Relocate, other.storage_, storage_);
        invoke_ = other.invoke_;
        manage_ = other.manage_;
        other.invoke_ = nullptr;
        other.manage_ = nullptr;
    }

    alignas(std::max_align_t) unsigned char storage_[inlineBytes];
    void (*invoke_)(void *) = nullptr;
    void (*manage_)(Op, void *, void *) = nullptr;
};

/** Lifecycle of a slab slot. */
enum class EventState : std::uint8_t {
    Free,    ///< on the freelist
    Pending, ///< scheduled, in the heap
    Running, ///< popped and executing (slot freed afterwards)
    Held,    ///< stored by hold(), not scheduled yet
};

/** One slab slot: bookkeeping for one scheduled event. */
struct EventRecord
{
    Tick when = 0;
    std::uint32_t gen = 0;
    EventState state = EventState::Free;
    EventFn fn;
};

} // namespace detail

/**
 * The order events run in: by tick, then priority (lower first), then
 * source id, then the source's own sequence number. (source, seq) is
 * unique, so this is a strict total order: the pop sequence is the
 * same for any correct heap, and for any partitioning of the events
 * over queues.
 */
struct EventKey
{
    Tick when;
    int priority;
    /** Who scheduled the event (Simulation::addSource). */
    std::uint32_t source;
    /** How many events the source had scheduled before this one. */
    std::uint64_t seq;
};

inline bool
operator<(const EventKey &a, const EventKey &b)
{
    if (a.when != b.when)
        return a.when < b.when;
    if (a.priority != b.priority)
        return a.priority < b.priority;
    if (a.source != b.source)
        return a.source < b.source;
    return a.seq < b.seq;
}

/**
 * Something that schedules events under its own key: a SimObject, or
 * one direction of a link. Its id is handed out by
 * Simulation::addSource() in construction order; the count is touched
 * only by the partition the source runs in.
 */
class EventSource
{
  public:
    explicit EventSource(std::uint32_t id) : id_(id) {}

    std::uint32_t id() const { return id_; }

    /** The sequence number the next event will get. */
    std::uint64_t nextSeq() const { return seq_; }

    /** Hand out @p n consecutive sequence numbers; @return the first. */
    std::uint64_t
    take(std::uint64_t n = 1)
    {
        const std::uint64_t first = seq_;
        seq_ += n;
        return first;
    }

    /** The key of the next event this source schedules. */
    EventKey
    key(Tick when, int priority = defaultPriority)
    {
        return EventKey{when, priority, id_, take()};
    }

  private:
    std::uint32_t id_;
    std::uint64_t seq_ = 0;
};

class EventQueue;

/**
 * Where parked work stands after a settle: the tick its next owed
 * link is due at (maxTick: nothing parked), and the tick of the last
 * link the settle ran (0: none).
 */
struct ParkedState
{
    Tick due = maxTick;
    Tick ran = 0;
};

/**
 * Work that would be a chain of events, each run at defaultPriority
 * under its owner's source and scheduling the next, that the owner can
 * run arithmetically instead: a parked spin-polling CPU
 * (host::CpuModel). The owner registers with EventQueue::setParked().
 * The links touch nothing but the owner's own state, so the owner
 * settles (settleNow()) before anything could tell the links did not
 * run as events: its own touches, and the end of a run call.
 */
class Parked
{
  public:
    /**
     * Run every owed link whose key is below @p before, as the chain's
     * events would have run. Neither schedules nor parks.
     */
    virtual ParkedState settle(const EventKey &before) = 0;

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

    /**
     * Cancel the event if it has not run yet: remove it from the queue
     * and destroy its closure now. Safe to call anytime.
     */
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
     * Schedule @p fn (any void() callable) to run under @p key, which
     * its source handed out (EventSource::key). The callable is stored
     * inline in the pooled event record; no allocation happens for
     * closures that fit detail::EventFn::inlineBytes.
     * @pre key.when >= now()
     */
    template <typename F>
    EventHandle
    schedule(const EventKey &key, F &&fn)
    {
        if (clearing_)
            return EventHandle{}; // teardown in progress: drop silently
        checkSchedulable(key.when);
        const std::uint32_t slot = acquireSlot();
        detail::EventRecord &rec = slab_[slot];
        rec.when = key.when;
        rec.state = detail::EventState::Pending;
        rec.fn.emplace(std::forward<F>(fn));
        heapPush(HeapEntry{key, slot});
        return EventHandle(this, slot, rec.gen);
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
     * Schedule the held event in @p slot under @p key: the link runs
     * in the place its chain gave it. @pre key.when >= now()
     */
    void release(std::uint32_t slot, const EventKey &key);

    /** Destroy the held event in @p slot without running it. */
    void discard(std::uint32_t slot) { releaseSlot(slot); }

    /**
     * Register parked @p work, or update the tick its next owed link
     * is due at (maxTick: unregister). Parked work is not an event: it
     * does not count for empty() or nextEventTick(), and clear() drops
     * it.
     */
    void setParked(Parked *work, Tick due);

    /**
     * Settle every parked work up to the event running now (after a
     * run: up to where the run stopped), as if its owed links had run
     * as events.
     */
    void
    settleNow()
    {
        if (parkedDue_ <= cur_.key.when)
            settleBefore(cur_.key);
    }

    /**
     * Settle parked work owed below @p until and advance now() to the
     * last link that ran, as a run stopped at @p until would leave it.
     * Called at the end of every bounded run (runUntil, advanceTo).
     */
    void settle(Tick until);

    /** @return true if no runnable events remain. */
    bool empty() const { return heap_.empty(); }

    /** Call @p fn with the key of every pending event, in no order. */
    template <typename Fn>
    void
    forEachPending(Fn &&fn) const
    {
        for (const HeapEntry &e : heap_)
            fn(e.key);
    }

    /** Tick of the next runnable event, or maxTick if none. */
    Tick
    nextEventTick() const
    {
        return heap_.empty() ? maxTick : heap_.front().key.when;
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
        if (heap_.empty() || heap_.front().key.when >= until)
            return false;
        cur_ = heap_.front();
        const std::uint32_t slot = cur_.slot;
        heapErase(0);
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
     * Label this queue with its owning partition's name so scheduling
     * diagnostics identify the shard (an unpartitioned run's stays
     * unlabelled).
     */
    void setLabel(std::string label) { label_ = std::move(label); }
    const std::string &label() const { return label_; }

    /** Slab capacity in records (diagnostics/tests). */
    std::size_t slabSize() const { return slab_.size(); }

    /** Free records ready for reuse (diagnostics/tests). */
    std::size_t freeSlots() const { return freelist_.size(); }

  private:
    friend class EventHandle;

    /**
     * Heap entry: ordering key plus the slab slot it refers to, 32
     * bytes. The key is a strict total order, so the heap arity and
     * layout are free to change without affecting replay.
     */
    struct HeapEntry
    {
        EventKey key;
        std::uint32_t slot;
    };

    static_assert(sizeof(HeapEntry) == 32);

    static bool
    earlier(const HeapEntry &a, const HeapEntry &b)
    {
        return a.key < b.key;
    }

    /** A registered Parked and the tick its next owed link is due at. */
    struct ParkedEntry
    {
        Parked *work;
        Tick due;
    };

    /**
     * Settle every parked work owed below @p before. @return the tick
     * of the last link that ran, or 0 if none did.
     */
    Tick settleBefore(const EventKey &before);

    /** Recompute parkedDue_. */
    void refreshParked();

    /** Store @p e at heap position @p i and record where it sits. */
    void
    heapPlace(std::size_t i, const HeapEntry &e)
    {
        heap_[i] = e;
        heapIndex_[e.slot] = static_cast<std::uint32_t>(i);
    }

    /**
     * The heap is 4-ary: half the levels of a binary heap, and the
     * four children share cache lines, which is what the event loop's
     * pop-push cadence is bound by. Both sifts move a hole, placing
     * each entry once.
     */
    void
    siftUp(std::size_t i, const HeapEntry &e)
    {
        while (i > 0) {
            const std::size_t parent = (i - 1) >> 2;
            if (!earlier(e, heap_[parent]))
                break;
            heapPlace(i, heap_[parent]);
            i = parent;
        }
        heapPlace(i, e);
    }

    void
    siftDown(std::size_t i, const HeapEntry &e)
    {
        const std::size_t n = heap_.size();
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
            if (!earlier(heap_[best], e))
                break;
            heapPlace(i, heap_[best]);
            i = best;
        }
        heapPlace(i, e);
    }

    void
    heapPush(const HeapEntry &e)
    {
        heap_.push_back(e);
        siftUp(heap_.size() - 1, e);
    }

    /** Remove the entry at heap position @p i (0: the minimum). */
    void
    heapErase(std::size_t i)
    {
        const HeapEntry last = heap_.back();
        heap_.pop_back();
        if (i == heap_.size())
            return;
        if (i > 0 && earlier(last, heap_[(i - 1) >> 2]))
            siftUp(i, last);
        else
            siftDown(i, last);
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
        heapIndex_.push_back(0);
        return static_cast<std::uint32_t>(slab_.size() - 1);
    }

    /**
     * Return @p slot to the freelist: bump the generation (so stale
     * handles die), destroy the closure, then make it reusable. Only
     * called once the slot has no heap entry.
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

    // Handle plumbing (slot validity checked via generation).
    bool handlePending(std::uint32_t slot, std::uint32_t gen) const;
    void handleCancel(std::uint32_t slot, std::uint32_t gen);
    Tick handleWhen(std::uint32_t slot, std::uint32_t gen) const;

    /** The pending events, and nothing else. */
    std::vector<HeapEntry> heap_;
    /** Heap position of each slab slot's entry (valid while Pending). */
    std::vector<std::uint32_t> heapIndex_;
    /** Registered parked work; a handful of entries, scanned linearly. */
    std::vector<ParkedEntry> parked_;
    /** The earliest owed link of any parked work (maxTick: none). */
    Tick parkedDue_ = maxTick;
    /**
     * Key of the event running now, or of the last one run; after a
     * bounded run, (bound, INT_MIN): parked work is settled below it.
     */
    HeapEntry cur_{{0, std::numeric_limits<int>::min(), 0, 0}, 0};
    // qpip-lint: deque-ok(a running closure lives in its record, so records need fixed addresses across pushes)
    std::deque<detail::EventRecord> slab_;
    std::vector<std::uint32_t> freelist_;
    Tick now_ = 0;
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
