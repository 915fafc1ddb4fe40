#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace qpip::sim {

using detail::EventRecord;
using detail::EventState;

void
EventQueue::panicPast(Tick when) const
{
    panic("%s: event scheduled in the past (when=%llu now=%llu)",
          label_.empty() ? "event queue" : label_.c_str(),
          static_cast<unsigned long long>(when),
          static_cast<unsigned long long>(now_));
}

void
EventQueue::advanceTo(Tick t)
{
    if (t == maxTick || t <= now_)
        return;
    const Tick next = nextEventTick();
    if (next < t) {
        panic("%s: advanceTo(%llu) would skip a runnable event at "
              "%llu",
              label_.empty() ? "event queue" : label_.c_str(),
              static_cast<unsigned long long>(t),
              static_cast<unsigned long long>(next));
    }
    now_ = t;
}

bool
EventQueue::handlePending(std::uint32_t slot, std::uint32_t gen) const
{
    const EventRecord &rec = slab_[slot];
    return rec.gen == gen && rec.state == EventState::Pending;
}

void
EventQueue::handleCancel(std::uint32_t slot, std::uint32_t gen)
{
    EventRecord &rec = slab_[slot];
    if (rec.gen == gen && rec.state == EventState::Pending) {
        // The slot stays out of the freelist until its heap entry is
        // popped (lazily, by skipCancelled/step) so a heap entry can
        // never refer to a recycled slot.
        rec.state = EventState::Cancelled;
    }
}

Tick
EventQueue::handleWhen(std::uint32_t slot, std::uint32_t gen) const
{
    const EventRecord &rec = slab_[slot];
    if (rec.gen != gen || rec.state != EventState::Pending)
        return maxTick;
    return rec.when;
}

Tick
EventQueue::idleHorizon(const void *resource)
{
    skipCancelled();
    Tick h = runBound_;
    if (!heap_.empty())
        h = std::min(h, heap_.front().when);
    // Another resource's empty polls touch only its own CPU and queue,
    // so they do not bound this one; a ready poll runs a callback.
    for (const IdleEntry &e : idle_) {
        if (e.key.when < h && (e.resource == resource || e.ready()))
            h = e.key.when;
    }
    return h;
}

bool
EventQueue::empty() const
{
    // Cancelled events may linger in the heap; sweep them first.
    auto *self = const_cast<EventQueue *>(this);
    self->skipCancelled();
    return heap_.empty() && idle_.empty();
}

Tick
EventQueue::nextEventTick() const
{
    auto *self = const_cast<EventQueue *>(this);
    self->skipCancelled();
    Tick next = heap_.empty() ? maxTick : heap_.front().when;
    if (!idle_.empty())
        next = std::min(next, idle_[idleMin_].key.when);
    return next;
}

void
EventQueue::clear()
{
    clearing_ = true;
    while (!heap_.empty() || !idle_.empty()) {
        std::uint32_t slot;
        if (!idle_.empty()) {
            slot = idle_.back().key.slot;
            idle_.pop_back();
        } else {
            slot = heap_.front().slot;
            heapPop();
        }
        // Destroying the closure may re-enter schedule() (dropped via
        // clearing_) or cancel() other events (handled lazily above).
        releaseSlot(slot);
    }
    idleMin_ = 0;
    clearing_ = false;
}

std::uint64_t
EventQueue::runUntil(Tick until)
{
    std::uint64_t n = 0;
    while (step(until))
        ++n;
    if (until != maxTick && until > now_)
        now_ = until;
    return n;
}

} // namespace qpip::sim
