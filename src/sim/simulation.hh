/**
 * @file
 * Simulation: the top-level container owning the master seed, the
 * stats registry, the event tracer and the engine that runs it.
 * Experiments construct one Simulation, build a testbed of SimObjects
 * against it, and drive it with run()/runUntil()/runFor().
 *
 * Every run goes through the engine (parallel_engine.hh). It starts
 * with one partition, partition 0, whose queue is eventQueue() and
 * where every SimObject starts; an unpartitioned run is that
 * partition alone. A testbed's enableParallel() splits it by switch.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/parallel_engine.hh"
#include "sim/stat_registry.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace qpip::sim {

class SimObject;

/**
 * Top-level simulation context.
 */
class Simulation
{
  public:
    explicit Simulation(std::uint64_t seed = 1);

    /** Partition 0's queue, where every SimObject starts. */
    EventQueue &eventQueue() { return engine_.partition(0).eventQueue(); }
    StatRegistry &stats() { return stats_; }
    const StatRegistry &stats() const { return stats_; }
    Tracer &tracer() { return tracer_; }
    ParallelEngine &engine() { return engine_; }

    /** Master seed: every object's random stream derives here. */
    std::uint64_t seed() const { return seed_; }

    /**
     * A new event source (see EventKey), numbered in the order sources
     * are added: every SimObject and each link direction adds one as
     * it is built. Panics while a partition executes, where the order
     * would depend on thread timing.
     */
    EventSource addSource();

    /** Sources added so far, plus source 0 (none). */
    std::uint32_t sources() const { return nextSource_; }

    /** The engine's clock (ParallelEngine::now). */
    Tick now() const { return engine_.now(); }

    /** Run until the event queues drain. @return events executed. */
    std::uint64_t run() { return engine_.run(); }

    /** Run until an absolute tick. @return events executed. */
    std::uint64_t runUntil(Tick until) { return engine_.runUntil(until); }

    /** Run for a relative duration. @return events executed. */
    std::uint64_t runFor(Tick duration) { return runUntil(now() + duration); }

    /**
     * Run until @p pred() becomes true or @p deadline passes. The
     * predicate is checked at every barrier, and a single partition
     * has a barrier after every event. Reading a spinning CPU's
     * counters settles the empty polls it owes (host::CpuModel), so
     * every check sees what the poll-per-event loop would; a run that
     * reaches @p deadline settles them up to it.
     * @return true if the predicate was satisfied.
     */
    template <typename Pred>
    bool
    runUntilCondition(Pred pred, Tick deadline = maxTick)
    {
        return engine_.runUntilCondition(
            std::function<bool()>(std::move(pred)), deadline);
    }

    // --- SimObject registry (used by ParallelEngine::assignByPrefix)
    void registerObject(SimObject *obj);
    void unregisterObject(SimObject *obj);
    std::vector<SimObject *> objectsSnapshot() const;

  private:
    std::uint64_t seed_;
    /** Id of the next source; 0 names none. */
    std::uint32_t nextSource_ = 1;
    StatRegistry stats_;
    Tracer tracer_;
    mutable std::mutex objMutex_;
    std::vector<SimObject *> objects_;
    /**
     * Last: built after, and destroyed before, the registries its
     * queues' closures may touch.
     */
    ParallelEngine engine_{*this};
};

} // namespace qpip::sim
