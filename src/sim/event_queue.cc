#include "sim/event_queue.hh"

#include <algorithm>
#include <limits>

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
    settle(t);
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
    if (rec.gen != gen || rec.state != EventState::Pending)
        return;
    // Erase before releasing: destroying the closure may re-enter
    // cancel() or schedule(), which must find the heap consistent.
    heapErase(heapIndex_[slot]);
    releaseSlot(slot);
}

Tick
EventQueue::handleWhen(std::uint32_t slot, std::uint32_t gen) const
{
    const EventRecord &rec = slab_[slot];
    if (rec.gen != gen || rec.state != EventState::Pending)
        return maxTick;
    return rec.when;
}

void
EventQueue::release(std::uint32_t slot, const EventKey &key)
{
    checkSchedulable(key.when);
    EventRecord &rec = slab_[slot];
    rec.when = key.when;
    rec.state = EventState::Pending;
    heapPush(HeapEntry{key, slot});
}

void
EventQueue::setParked(Parked *work, Tick due)
{
    auto it = std::find_if(parked_.begin(), parked_.end(),
                           [work](const ParkedEntry &e) {
                               return e.work == work;
                           });
    if (due == maxTick) {
        if (it != parked_.end())
            parked_.erase(it);
    } else if (it != parked_.end()) {
        it->due = due;
    } else {
        parked_.push_back(ParkedEntry{work, due});
    }
    refreshParked();
}

void
EventQueue::refreshParked()
{
    parkedDue_ = maxTick;
    for (const ParkedEntry &e : parked_)
        parkedDue_ = std::min(parkedDue_, e.due);
}

Tick
EventQueue::settleBefore(const EventKey &before)
{
    // settle() neither schedules nor parks, so the entries stay put
    // while this walks them.
    Tick last = 0;
    for (ParkedEntry &e : parked_) {
        if (e.due > before.when)
            continue;
        const ParkedState state = e.work->settle(before);
        e.due = state.due;
        last = std::max(last, state.ran);
    }
    refreshParked();
    return last;
}

void
EventQueue::settle(Tick until)
{
    if (until == maxTick)
        return;
    // (until, lowest priority, 0, 0) sorts before every event at until.
    const EventKey bound{until, std::numeric_limits<int>::min(), 0, 0};
    if (until > parkedDue_)
        now_ = std::max(now_, settleBefore(bound));
    if (until > cur_.key.when)
        cur_ = HeapEntry{bound, 0};
}

void
EventQueue::clear()
{
    clearing_ = true;
    // Dropping parked work may release closures that unpark (and so
    // re-enter setParked()) or schedule (dropped via clearing_).
    const std::vector<ParkedEntry> parked = std::move(parked_);
    parked_.clear();
    refreshParked();
    for (const ParkedEntry &e : parked)
        e.work->drop();
    while (!heap_.empty()) {
        const std::uint32_t slot = heap_.front().slot;
        heapErase(0);
        // Destroying the closure may re-enter schedule() (dropped via
        // clearing_) or cancel() other events, erasing them here.
        releaseSlot(slot);
    }
    clearing_ = false;
}

std::uint64_t
EventQueue::runUntil(Tick until)
{
    std::uint64_t n = 0;
    while (step(until))
        ++n;
    settle(until);
    if (until != maxTick && until > now_)
        now_ = until;
    return n;
}

} // namespace qpip::sim
