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
    // (its key) the poll-per-event loop gave it.
    cpu.eventQueue().release(spin.poll, cpu.pollKey(spin.due, spin.seq));
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
    eventQueue().setParked(this, sim::maxTick);
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
    // Polls owed before now ran before this retry is scheduled: settle
    // so their successors' sequence numbers come first. The retry is
    // due at busyUntil(), past every other owed poll, so it joins the
    // grid last.
    eventQueue().settleNow();
    std::rotate(spins_.begin(), spins_.begin() + head_, spins_.end());
    head_ = 0;
    spins_.push_back(
        Spin{&waiter, busyUntil_, eventSource().take(), poll});
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
CpuModel::settle(const sim::EventKey &before)
{
    const std::size_t m = spins_.size();
    const sim::Tick p = pollTicks_;
    // Owed polls run in key order, which is ring order from head_.
    // Every owed tick is at or below busyUntil_ (each was busyUntil_
    // when set, and busyUntil_ only grows), so every owed poll charges
    // one period from busyUntil_, and the spinner's next poll is owed
    // where that charge ends, keyed by the next number this CPU hands
    // out.
    sim::Tick ran = 0;
    std::size_t polled = 0;
    while (polled < m &&
           pollKey(spins_[head_].due, spins_[head_].seq) < before) {
        Spin &s = spins_[head_];
        ran = s.due;
        busyUntil_ += p;
        busyTotal_ += p;
        s.due = busyUntil_;
        s.seq = eventSource().take();
        ++polled;
        if (++head_ == m)
            head_ = 0;
    }
    if (polled < m)
        return sim::ParkedState{due(), ran};
    // Each spinner polled once: the owed polls now lie one period apart
    // from head_ round the ring, and the k-th of them to run will take
    // the k-th number the CPU hands out from here. Count those below
    // the bound: every one before its tick, and the one on it if its
    // key is lower.
    const sim::Tick first = spins_[head_].due;
    const std::uint64_t base = eventSource().nextSeq();
    std::uint64_t n = 0;
    if (before.when > first)
        n = (before.when - first - 1) / p + 1;
    if (before.when >= first && (before.when - first) % p == 0 &&
        pollKey(before.when, base + n) < before)
        ++n;
    if (n == 0)
        return sim::ParkedState{first, ran};
    // Poll k from head_ (k < m) runs the k-th, (k+m)-th, ... of the n.
    const std::uint64_t rounds = n / m;
    const std::size_t extra = n % m;
    for (std::size_t k = 0, i = head_; k < m; ++k) {
        const std::uint64_t polls = rounds + (k < extra ? 1 : 0);
        if (polls > 0) {
            spins_[i].due += polls * m * p;
            spins_[i].seq = base + k + (polls - 1) * m;
        }
        if (++i == m)
            i = 0;
    }
    eventSource().take(n);
    busyUntil_ += n * p;
    busyTotal_ += n * p;
    head_ += extra;
    if (head_ >= m)
        head_ -= m;
    return sim::ParkedState{due(), first + (n - 1) * p};
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
