#include "sim/simulation.hh"

#include <algorithm>

#include "sim/parallel_engine.hh"

namespace qpip::sim {

Simulation::Simulation(std::uint64_t seed) : seed_(seed) {}

Tick
Simulation::engineNow() const
{
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
