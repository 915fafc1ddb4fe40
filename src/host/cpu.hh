/**
 * @file
 * A serializing CPU resource with busy-time accounting. All kernel
 * and application work on a host flows through one of these; the
 * Figure 4 / Figure 7 CPU-utilization numbers are Δbusy/Δwall read
 * off it. (The PowerEdge 6350 has four processors, but ttcp and the
 * NBD client are single-threaded — one modeled CPU carries the same
 * information as the paper's "fraction of a host processor".)
 */

#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/clock.hh"
#include "sim/sim_object.hh"

namespace qpip::host {

class CpuModel;

/**
 * Where a spin loop parks: one per completion queue, whose producer
 * calls wake() on every push. At most one spinner parks on a waiter.
 */
class SpinWaiter
{
  public:
    SpinWaiter() = default;
    SpinWaiter(const SpinWaiter &) = delete;
    SpinWaiter &operator=(const SpinWaiter &) = delete;
    ~SpinWaiter();

    /** Schedule the next poll of the spinner parked here, if any. */
    void
    wake()
    {
        if (cpu_ != nullptr)
            wakeParked();
    }

    bool parked() const { return cpu_ != nullptr; }

  private:
    friend class CpuModel;
    void wakeParked();

    /** The CPU the spinner is parked on. */
    CpuModel *cpu_ = nullptr;
};

/**
 * One host CPU.
 *
 * Parked spinners: a spin loop whose poll found its completion queue
 * empty parks here instead of scheduling its retry (park()). Until a
 * push wakes it, every poll it would make is empty and charges one
 * poll period from busyUntil(), so the polls it owes lie on a grid.
 * Each owed poll is keyed as the event it replaces would be: by this
 * CPU, with the sequence number the CPU hands out when the poll
 * before it runs. The CPU charges them arithmetically when anything
 * could tell the difference (sim::Parked) — it is charged, run on or
 * read, or a run call ends — and a push schedules only the owed poll
 * that sees the entry. Several spinners on one CPU take turns on one
 * round-robin grid. DESIGN.md §9 has the exactness argument.
 */
class CpuModel : public sim::SimObject, private sim::Parked
{
  public:
    CpuModel(sim::Simulation &sim, std::string name,
             std::uint64_t freq_hz);
    ~CpuModel() override;

    /**
     * Reserve @p cycles of CPU and run @p fn when they complete.
     * Work is serialized in submission order. The callable is stored
     * directly in the event queue's pooled record (no std::function).
     */
    template <typename F>
    void
    run(sim::Cycles cycles, F &&fn)
    {
        charge(cycles);
        schedule(busyUntil_, std::forward<F>(fn));
    }

    /** Reserve cycles with no completion action. */
    void
    charge(sim::Cycles cycles)
    {
        const bool parked = !spins_.empty();
        if (parked) [[unlikely]]
            eventQueue().settleNow();
        const sim::Tick dur = clock_.cyclesToTicks(cycles);
        const sim::Tick start = std::max(curTick(), busyUntil_);
        busyUntil_ = start + dur;
        busyTotal_ += dur;
        if (parked) [[unlikely]]
            registerState();
    }

    /** Total busy ticks committed so far. */
    sim::Tick
    busyTotal()
    {
        if (!spins_.empty()) [[unlikely]]
            eventQueue().settleNow();
        return busyTotal_;
    }

    /** Tick at which currently queued work completes. */
    sim::Tick
    busyUntil()
    {
        if (!spins_.empty()) [[unlikely]]
            eventQueue().settleNow();
        return busyUntil_;
    }

    const sim::ClockDomain &clock() const { return clock_; }

    /**
     * Park a spin loop on @p waiter. The poll just made found its
     * queue empty and charged @p cycles; the loop would now schedule
     * its retry at busyUntil(). That retry and every poll after it are
     * owed instead, each charging @p cycles, until a push wakes the
     * waiter: then the first owed poll that can see the entry runs
     * @p poll as an event. Spinners on one CPU share one poll cost.
     */
    template <typename F>
    void
    park(SpinWaiter &waiter, sim::Cycles cycles, F &&poll)
    {
        addSpinner(waiter, clock_.cyclesToTicks(cycles),
                   hold(std::forward<F>(poll)));
    }

    /** Utilization over a window measured by the caller. */
    static double
    utilization(sim::Tick busy_delta, sim::Tick wall_delta)
    {
        if (wall_delta == 0)
            return 0.0;
        return static_cast<double>(busy_delta) /
               static_cast<double>(wall_delta);
    }

  private:
    friend class SpinWaiter;

    /** A parked spinner and the poll it owes next. */
    struct Spin
    {
        SpinWaiter *waiter;
        /** Tick and sequence number (of this CPU) of the owed poll. */
        sim::Tick due;
        std::uint64_t seq;
        /** The held event that polls when a push wakes the spinner. */
        std::uint32_t poll;
    };

    void addSpinner(SpinWaiter &waiter, sim::Tick period,
                    std::uint32_t poll);
    /** Take @p waiter's spinner out of the grid. */
    Spin removeSpinner(SpinWaiter &waiter);
    /** The tick of the next owed poll (maxTick: none). */
    sim::Tick
    due() const
    {
        return spins_.empty() ? sim::maxTick : spins_[head_].due;
    }
    void registerState() { eventQueue().setParked(this, due()); }
    /** The key of an owed poll. */
    sim::EventKey
    pollKey(sim::Tick due, std::uint64_t seq)
    {
        return sim::EventKey{due, sim::defaultPriority,
                             eventSource().id(), seq};
    }

    sim::ParkedState settle(const sim::EventKey &before) override;
    void drop() override;

    sim::ClockDomain clock_;
    sim::Tick busyUntil_ = 0;
    sim::Tick busyTotal_ = 0;
    /**
     * Parked spinners; spins_[(head_ + k) % size] owes the k-th next
     * poll, so owed ticks ascend from head_ round the ring.
     */
    std::vector<Spin> spins_;
    std::size_t head_ = 0;
    /** Ticks one empty poll charges, shared by every parked spinner. */
    sim::Tick pollTicks_ = 0;
};

} // namespace qpip::host
