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
EventQueue::release(std::uint32_t slot, Tick when, std::uint64_t seq)
{
    checkSchedulable(when);
    EventRecord &rec = slab_[slot];
    rec.when = when;
    rec.priority = defaultPriority;
    rec.seq = seq;
    rec.state = EventState::Pending;
    heapPush(HeapEntry{when, defaultPriority, seq, slot});
}

void
EventQueue::setParked(Parked *work, ParkedState state)
{
    auto it = std::find_if(parked_.begin(), parked_.end(),
                           [work](const ParkedEntry &e) {
                               return e.work == work;
                           });
    if (state.due == maxTick) {
        if (it != parked_.end())
            parked_.erase(it);
    } else if (it != parked_.end()) {
        it->state = state;
    } else {
        parked_.push_back(ParkedEntry{work, state});
    }
    refreshParked();
}

void
EventQueue::refreshParked()
{
    parkedDue_ = maxTick;
    parkedReach_ = 0;
    parkedSpan_ = 0;
    for (const ParkedEntry &e : parked_) {
        parkedDue_ = std::min(parkedDue_, e.state.due);
        parkedReach_ = std::max(parkedReach_, e.state.reach);
        parkedSpan_ = std::max(parkedSpan_, e.state.span);
    }
}

namespace {

/**
 * Did @p a's last link run before @p b's? Links on one tick run in
 * seq order; a chain's first link has a real seq, every later one the
 * seq its predecessor reserved while the settle ran, so it comes after
 * every first link and, among later links, after whichever predecessor
 * ran first. Walk both chains back until the ticks differ.
 */
bool
ranBefore(const ParkedChain &a, const ParkedChain &b)
{
    std::uint64_t ia = a.gridCount;
    std::uint64_t ib = b.gridCount;
    for (;;) {
        if (a.at(ia) != b.at(ib))
            return a.at(ia) < b.at(ib);
        if (ia == 0 || ib == 0)
            return ia == 0 && (ib != 0 || a.firstSeq < b.firstSeq);
        // Equal grids stay tied link for link: skip to the last grid
        // link of the shorter one.
        const std::uint64_t skip =
            a.gridStep == b.gridStep ? std::min(ia, ib) - 1 : 0;
        ia -= skip + 1;
        ib -= skip + 1;
    }
}

} // namespace

Tick
EventQueue::settleBefore(Tick when, int priority, std::uint64_t seq)
{
    chains_.clear();
    // settle() neither schedules nor parks, so the entries stay put
    // while this walks them.
    for (ParkedEntry &e : parked_) {
        if (e.state.due <= when)
            e.state = e.work->settle(when, priority, seq, chains_);
    }
    refreshParked();
    if (chains_.size() > 1)
        std::sort(chains_.begin(), chains_.end(), ranBefore);
    Tick last = 0;
    for (const ParkedChain &c : chains_) {
        *c.nextSeq = nextSeq_++;
        last = std::max(last, c.at(c.gridCount));
    }
    return last;
}

void
EventQueue::settle(Tick until)
{
    if (until == maxTick)
        return;
    // (until, lowest priority, 0) sorts before every event at until.
    constexpr int lowest = std::numeric_limits<int>::min();
    if (until > parkedDue_)
        now_ = std::max(now_, settleBefore(until, lowest, 0));
    if (until > cur_.when)
        cur_ = HeapEntry{until, lowest, 0, 0};
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
