#include "sim/simulation.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/parallel_engine.hh"

namespace qpip::sim {

Simulation::Simulation(std::uint64_t seed) : seed_(seed) {}

EventSource
Simulation::addSource()
{
    if (engine_ != nullptr && engine_->inEpoch())
        panic("event source added while a partition executes: build "
              "every SimObject before running partitioned");
    return EventSource(nextSource_++);
}

Tick
Simulation::engineNow() const
{
    if (engine_->inEpoch())
        panic("Simulation::now() read while a partition executes: it "
              "is the epoch frontier, not the running event's tick; "
              "read the running object's clock (SimObject::curTick)");
    return engine_->now();
}

std::uint64_t
Simulation::engineRunUntil(Tick until)
{
    return engine_->runUntil(until);
}

bool
Simulation::engineRunUntilCondition(std::function<bool()> pred,
                                    Tick deadline)
{
    return engine_->runUntilCondition(pred, deadline);
}

void
Simulation::registerObject(SimObject *obj)
{
    std::lock_guard<std::mutex> lock(objMutex_);
    objects_.push_back(obj);
}

void
Simulation::unregisterObject(SimObject *obj)
{
    std::lock_guard<std::mutex> lock(objMutex_);
    objects_.erase(std::remove(objects_.begin(), objects_.end(), obj),
                   objects_.end());
}

std::vector<SimObject *>
Simulation::objectsSnapshot() const
{
    std::lock_guard<std::mutex> lock(objMutex_);
    return objects_;
}

} // namespace qpip::sim
