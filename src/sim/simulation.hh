/**
 * @file
 * Simulation: the top-level container owning the event queue, the
 * master seed, the stats registry and the event tracer. Experiments
 * construct one Simulation, build a testbed of SimObjects against it,
 * and drive it with run()/runUntil()/runFor().
 *
 * A Simulation normally executes serially on its own event queue.
 * When a ParallelEngine is installed (a testbed's enableParallel(),
 * or one constructed directly), the run*() entry points delegate to
 * the engine's barrier-epoch loop; the serial path stays the default.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/stat_registry.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace qpip::sim {

class ParallelEngine;
class SimObject;

/**
 * Top-level simulation context.
 */
class Simulation
{
  public:
    explicit Simulation(std::uint64_t seed = 1);

    EventQueue &eventQueue() { return eq_; }
    StatRegistry &stats() { return stats_; }
    const StatRegistry &stats() const { return stats_; }
    Tracer &tracer() { return tracer_; }

    /** Master seed: every object's random stream derives here. */
    std::uint64_t seed() const { return seed_; }

    /**
     * A new event source (see EventKey), numbered in the order sources
     * are added: every SimObject and each link direction adds one as
     * it is built. Panics while a partition executes, where the order
     * would depend on thread timing.
     */
    EventSource addSource();

    /** The installed parallel engine, or nullptr (serial mode). */
    ParallelEngine *parallelEngine() const { return engine_; }

    /**
     * The serial queue's clock or, under a parallel engine, the
     * frontier of its latest epoch. Panics while a partition executes,
     * where the frontier is not the running event's tick; simulated
     * work reads its own object's clock (SimObject::curTick).
     */
    Tick
    now() const
    {
        return engine_ != nullptr ? engineNow() : eq_.now();
    }

    /** Run until the event queue drains. @return events executed. */
    std::uint64_t
    run()
    {
        return engine_ != nullptr ? engineRunUntil(maxTick) : eq_.run();
    }

    /** Run until an absolute tick. @return events executed. */
    std::uint64_t
    runUntil(Tick until)
    {
        return engine_ != nullptr ? engineRunUntil(until)
                                  : eq_.runUntil(until);
    }

    /** Run for a relative duration. @return events executed. */
    std::uint64_t
    runFor(Tick duration)
    {
        return runUntil(now() + duration);
    }

    /**
     * Run until @p pred() becomes true or @p deadline passes. Serial
     * mode checks after every event; under a parallel engine the
     * check happens at every epoch barrier. Reading a spinning CPU's
     * counters settles the empty polls it owes (host::CpuModel), so
     * every check sees what the poll-per-event loop would; a run that
     * reaches @p deadline settles them up to it.
     * @return true if the predicate was satisfied.
     */
    template <typename Pred>
    bool
    runUntilCondition(Pred pred, Tick deadline = maxTick)
    {
        if (engine_ != nullptr) {
            return engineRunUntilCondition(
                std::function<bool()>(std::move(pred)), deadline);
        }
        while (!pred()) {
            if (!eq_.step(deadline)) {
                eq_.settle(deadline);
                return pred();
            }
        }
        return true;
    }

    // --- SimObject registry (used by ParallelEngine::assignByPrefix)
    void registerObject(SimObject *obj);
    void unregisterObject(SimObject *obj);
    std::vector<SimObject *> objectsSnapshot() const;

  private:
    friend class ParallelEngine; // installs/uninstalls engine_

    Tick engineNow() const;
    std::uint64_t engineRunUntil(Tick until);
    bool engineRunUntilCondition(std::function<bool()> pred,
                                 Tick deadline);

    std::uint64_t seed_;
    /** Id of the next source; 0 keys events scheduled with none. */
    std::uint32_t nextSource_ = 1;
    EventQueue eq_;
    StatRegistry stats_;
    Tracer tracer_;
    ParallelEngine *engine_ = nullptr;
    mutable std::mutex objMutex_;
    std::vector<SimObject *> objects_;
};

} // namespace qpip::sim
