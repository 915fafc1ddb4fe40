/**
 * @file
 * SimObject: named base class for every simulated component. Provides
 * access to the owning Simulation's event queue plus schedule
 * helpers, mirroring the gem5 SimObject idiom.
 *
 * Every object is an event source (see event_queue.hh): its events
 * are keyed by an id handed out in construction order and by its own
 * count of the events it scheduled, so they run in the same order
 * whichever queue holds them. Objects are built before the simulation
 * runs partitioned; building one while a partition executes panics,
 * since its id would then depend on thread timing.
 *
 * Partitioning: an object schedules into whatever event queue it is
 * bound to. It starts in partition 0's (Simulation::eventQueue()),
 * which is the whole of an unpartitioned run; partitioning rebinds it
 * to its partition's queue via bindExecContext().
 *
 * Randomness is not part of the context: an object that draws random
 * numbers owns a sim::Random seeded by sim::streamSeed() from the
 * simulation seed and name(), so its draws are the same whichever
 * queue it is bound to.
 */

#pragma once

#include <string>
#include <utility>

#include "sim/event_queue.hh"
#include "sim/simulation.hh"
#include "sim/stat_registry.hh"
#include "sim/types.hh"

namespace qpip::sim {

/**
 * Base class for simulated components.
 */
class SimObject
{
  public:
    /**
     * @param sim owning simulation (must outlive this object).
     * @param name hierarchical instance name, e.g. "host0.nic".
     */
    SimObject(Simulation &sim, std::string name);
    virtual ~SimObject();

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return name_; }
    Simulation &simulation() { return sim_; }

    /** Id of this object's event source: its place in build order. */
    std::uint32_t sourceId() const { return source_.id(); }

    /** Current simulated time (of the bound execution context). */
    Tick curTick() const { return eq_->now(); }

    /** The event queue this object schedules into. */
    EventQueue &eventQueue() { return *eq_; }

    /**
     * Rebind to a partition's event queue. Called by
     * ParallelEngine::assignByPrefix during setup — never while the
     * simulation is running.
     */
    void
    bindExecContext(EventQueue &eq)
    {
        eq_ = &eq;
        assigned_ = true;
    }

    /** Was this object assigned a partition (bindExecContext)? */
    bool assigned() const { return assigned_; }

    /**
     * Schedule a closure at an absolute tick, keyed by this object.
     * The callable goes straight into the event queue's pooled record
     * storage — no std::function wrapping on the way.
     */
    template <typename F>
    EventHandle
    schedule(Tick when, F &&fn, int priority = defaultPriority)
    {
        return eq_->schedule(source_.key(when, priority),
                             std::forward<F>(fn));
    }

    /** Schedule a closure @p delay ticks from now. */
    template <typename F>
    EventHandle
    scheduleIn(Tick delay, F &&fn, int priority = defaultPriority)
    {
        return schedule(curTick() + delay, std::forward<F>(fn),
                        priority);
    }

    /** Hold a closure unscheduled (see EventQueue::hold). */
    template <typename F>
    std::uint32_t
    hold(F &&fn)
    {
        return eventQueue().hold(std::forward<F>(fn));
    }

    /** Simulation-wide stats registry. */
    StatRegistry &statRegistry() { return sim_.stats(); }

    /** Simulation-wide event tracer. */
    Tracer &tracer() { return sim_.tracer(); }

  protected:
    /** The key source of this object's events. */
    EventSource &eventSource() { return source_; }

    /**
     * Register a stat under "<name()>.<leaf>". All registrations are
     * removed automatically when this object is destroyed. An object
     * that registers none binds no group.
     */
    template <typename Stat>
    void
    regStat(const std::string &leaf, const Stat &stat)
    {
        if (!stats_.bound())
            stats_.init(sim_.stats(), name_);
        stats_.add(leaf, stat);
    }

  private:
    Simulation &sim_;
    std::string name_;
    EventQueue *eq_;
    bool assigned_ = false;
    EventSource source_;
    StatGroup stats_;
};

} // namespace qpip::sim
