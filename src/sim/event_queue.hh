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
 * Idle-spin lane: spin polls (a CPU re-polling its completion queue)
 * live beside the heap in a small lane, at most one entry per spinning
 * queue, ordered under the same (when, priority, seq) key. A spinner
 * asks idleHorizon() how far it may charge its CPU for empty polls
 * without running them; see scheduleIdle().
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
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
     * Schedule a spin poll: @p fn runs at @p when on the idle-spin
     * lane, ordered against heap events by the usual (when, priority,
     * seq) key at defaultPriority. @p resource names the CPU doing the
     * spinning; @p ready reports whether the poll would find work
     * (and so do more than an empty poll). Spin polls are never
     * cancelled, so there is no handle.
     * @pre when >= now()
     */
    template <typename F>
    void
    scheduleIdle(const void *resource, std::function<bool()> ready,
                 Tick when, F &&fn)
    {
        if (clearing_)
            return;
        checkSchedulable(when);
        const std::uint32_t slot = acquireSlot();
        detail::EventRecord &rec = slab_[slot];
        rec.when = when;
        rec.priority = defaultPriority;
        rec.seq = nextSeq_++;
        rec.state = detail::EventState::Pending;
        rec.fn.emplace(std::forward<F>(fn));
        idle_.push_back(IdleEntry{
            HeapEntry{when, defaultPriority, rec.seq, slot}, resource,
            std::move(ready)});
        if (earlier(idle_.back().key, idle_[idleMin_].key))
            idleMin_ = idle_.size() - 1;
    }

    /**
     * The idle horizon of @p resource: the earliest tick at which
     * anything but an empty spin poll of another resource can run.
     * It is the minimum of the next heap event, the next lane entry
     * of @p resource, the next lane entry of any other resource that
     * is ready, and the bound of the step() in progress (0 outside
     * one: the caller may still schedule anything). No event before it
     * can touch the spinner's queue or CPU, so every poll that would
     * start before it finds the queue empty.
     */
    Tick idleHorizon(const void *resource);

    /** @return true if no runnable events remain. */
    bool empty() const;

    /** Tick of the next runnable event, or maxTick if none. */
    Tick nextEventTick() const;

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
     * Advance the clock to @p t without running anything — the
     * parallel engine's idle-partition fast path: a partition with no
     * event below its epoch bound still owns the time, so later
     * schedule() calls must be measured against it. maxTick is
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
        std::uint32_t slot;
        if (!idle_.empty() &&
            (heap_.empty() ||
             earlier(idle_[idleMin_].key, heap_.front()))) {
            if (idle_[idleMin_].key.when >= until)
                return false;
            slot = idle_[idleMin_].key.slot;
            idlePop();
        } else {
            if (heap_.empty() || heap_.front().when >= until)
                return false;
            slot = heap_.front().slot;
            heapPop();
        }
        detail::EventRecord &rec = slab_[slot];
        now_ = rec.when;
        rec.state = detail::EventState::Running;
        ++executed_;
        runBound_ = until;
        rec.fn();
        runBound_ = 0;
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

    /** A spin poll on the idle-spin lane. */
    struct IdleEntry
    {
        HeapEntry key;
        const void *resource;
        std::function<bool()> ready;
    };

    /** Remove the lane minimum and find the next one. */
    void
    idlePop()
    {
        if (idleMin_ + 1 != idle_.size())
            idle_[idleMin_] = std::move(idle_.back());
        idle_.pop_back();
        idleMin_ = 0;
        for (std::size_t i = 1; i < idle_.size(); ++i) {
            if (earlier(idle_[i].key, idle_[idleMin_].key))
                idleMin_ = i;
        }
    }

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
    /** The idle-spin lane; a handful of entries, scanned linearly. */
    std::vector<IdleEntry> idle_;
    /** Index of the lane minimum (0 while the lane is empty). */
    std::size_t idleMin_ = 0;
    /** The bound of the step() in progress; 0 outside one. */
    Tick runBound_ = 0;
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
