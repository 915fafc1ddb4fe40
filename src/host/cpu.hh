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

#include "sim/clock.hh"
#include "sim/sim_object.hh"

namespace qpip::host {

/**
 * One host CPU.
 */
class CpuModel : public sim::SimObject
{
  public:
    CpuModel(sim::Simulation &sim, std::string name,
             std::uint64_t freq_hz);

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
    void charge(sim::Cycles cycles) { charge(cycles, 1); }

    /**
     * Reserve @p cycles back to back @p times times: the same sum as
     * @p times separate charge(cycles) calls.
     */
    void
    charge(sim::Cycles cycles, std::uint64_t times)
    {
        const sim::Tick dur = times * clock_.cyclesToTicks(cycles);
        const sim::Tick start = std::max(curTick(), busyUntil_);
        busyUntil_ = start + dur;
        busyTotal_ += dur;
    }

    /** Total busy ticks committed so far. */
    sim::Tick busyTotal() const { return busyTotal_; }

    /** Tick at which currently queued work completes. */
    sim::Tick busyUntil() const { return busyUntil_; }

    const sim::ClockDomain &clock() const { return clock_; }

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
    sim::ClockDomain clock_;
    sim::Tick busyUntil_ = 0;
    sim::Tick busyTotal_ = 0;
};

} // namespace qpip::host
