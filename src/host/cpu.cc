#include "host/cpu.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace qpip::host {

SpinWaiter::~SpinWaiter()
{
    if (cpu_ != nullptr) {
        CpuModel &cpu = *cpu_;
        cpu.eventQueue().discard(cpu.removeSpinner(*this).poll);
    }
}

void
SpinWaiter::wakeParked()
{
    CpuModel &cpu = *cpu_;
    CpuModel::Spin spin = cpu.removeSpinner(*this);
    // Settled up to the running event, the spinner owes the first poll
    // after it: the first that sees the entry. It runs in the place
    // (tick and sequence number) the poll-per-event loop gave it.
    cpu.eventQueue().release(spin.poll, spin.due, spin.seq);
}

CpuModel::CpuModel(sim::Simulation &sim, std::string name,
                   std::uint64_t freq_hz)
    : SimObject(sim, std::move(name)), clock_(freq_hz)
{}

CpuModel::~CpuModel()
{
    if (spins_.empty())
        return;
    for (Spin &s : spins_) {
        s.waiter->cpu_ = nullptr;
        eventQueue().discard(s.poll);
    }
    eventQueue().setParked(this, sim::ParkedState{});
}

void
CpuModel::addSpinner(SpinWaiter &waiter, sim::Tick period,
                     std::uint32_t poll)
{
    if (waiter.cpu_ != nullptr)
        sim::panic("%s: a second spin loop parked on one queue",
                   name().c_str());
    if (period == 0)
        sim::panic("%s: a spin loop with a zero-cost poll never "
                   "advances time", name().c_str());
    if (!spins_.empty() && period != pollTicks_)
        sim::panic("%s: spinners on one CPU must share one poll cost",
                   name().c_str());
    pollTicks_ = period;
    // Polls owed before now, on any CPU of this queue, ran before this
    // retry is scheduled: settle so their successors' sequence numbers
    // come first. The retry is due at busyUntil(), past every other
    // owed poll, so it joins the grid last.
    eventQueue().settleNow();
    std::rotate(spins_.begin(), spins_.begin() + head_, spins_.end());
    head_ = 0;
    spins_.push_back(
        Spin{&waiter, busyUntil_, eventQueue().reserveSeq(), poll});
    waiter.cpu_ = this;
    registerState();
}

CpuModel::Spin
CpuModel::removeSpinner(SpinWaiter &waiter)
{
    eventQueue().settleNow();
    std::rotate(spins_.begin(), spins_.begin() + head_, spins_.end());
    head_ = 0;
    auto it = std::find_if(spins_.begin(), spins_.end(),
                           [&waiter](const Spin &s) {
                               return s.waiter == &waiter;
                           });
    Spin spin = std::move(*it);
    spins_.erase(it);
    waiter.cpu_ = nullptr;
    registerState();
    return spin;
}

sim::ParkedState
CpuModel::state() const
{
    if (spins_.empty())
        return sim::ParkedState{};
    // Every owed poll is at or below busyUntil_; settled later, the
    // next owed polls sit within one round (spins_.size() periods) of
    // busyUntil_ or of the tick the settle runs at.
    const sim::Tick span = spins_.size() * pollTicks_;
    return sim::ParkedState{spins_[head_].due, busyUntil_ + span, span};
}

sim::ParkedState
CpuModel::settle(sim::Tick when, int priority, std::uint64_t seq,
                 std::vector<sim::ParkedChain> &chains)
{
    // Does an owed poll keyed (due, defaultPriority, s) run before the
    // event keyed (when, priority, seq)?
    auto runsFirst = [&](sim::Tick due, std::uint64_t s) {
        if (due != when)
            return due < when;
        if (priority != sim::defaultPriority)
            return sim::defaultPriority < priority;
        return s < seq;
    };
    const std::size_t m = spins_.size();
    const sim::Tick p = pollTicks_;
    // Every owed tick is at or below busyUntil_ (each was busyUntil_
    // when set, and busyUntil_ only grows), so every owed poll charges
    // one period from busyUntil_, and the spinner's next poll is owed
    // where that charge ends.
    const std::size_t base = chains.size();
    std::size_t ran = 0;
    while (ran < m && runsFirst(spins_[head_].due, spins_[head_].seq)) {
        Spin &s = spins_[head_];
        busyUntil_ += p;
        busyTotal_ += p;
        chains.push_back(sim::ParkedChain{s.due, s.seq, busyUntil_,
                                          m * p, 0, &s.seq});
        s.due = busyUntil_;
        ++ran;
        if (++head_ == m)
            head_ = 0;
    }
    if (ran < m)
        return state();
    // Each spinner polled once: the owed polls now lie one period apart
    // from head_ round the ring. Their sequence numbers are reserved
    // after this settle, past the event's, so a poll on the event's own
    // tick runs first only if the event's priority puts it later.
    const sim::Tick first = spins_[head_].due;
    std::uint64_t n = 0;
    if (when > first)
        n = (when - first - 1) / p + 1;
    if (priority > sim::defaultPriority && when >= first &&
        (when - first) % p == 0)
        ++n;
    if (n == 0)
        return state();
    // Poll order from head_ is the order they ran in above.
    const std::uint64_t rounds = m == 1 ? n : n / m;
    const std::size_t extra = m == 1 ? 0 : n % m;
    for (std::size_t k = 0, i = head_; k < m; ++k) {
        const std::uint64_t polls = rounds + (k < extra ? 1 : 0);
        spins_[i].due += polls * m * p;
        chains[base + k].gridCount = polls;
        if (++i == m)
            i = 0;
    }
    busyUntil_ += n * p;
    busyTotal_ += n * p;
    head_ += extra;
    if (head_ >= m)
        head_ -= m;
    return state();
}

void
CpuModel::drop()
{
    std::vector<Spin> spins = std::move(spins_);
    spins_.clear();
    head_ = 0;
    // Detach first: destroying a poll closure may destroy its queue.
    for (Spin &s : spins)
        s.waiter->cpu_ = nullptr;
    for (Spin &s : spins)
        eventQueue().discard(s.poll);
}

} // namespace qpip::host
