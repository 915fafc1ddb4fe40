#include "sim/simulation.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace qpip::sim {

Simulation::Simulation(std::uint64_t seed) : seed_(seed) {}

EventSource
Simulation::addSource()
{
    if (engine_.inEpoch())
        panic("event source added while a partition executes: build "
              "every SimObject before running partitioned");
    return EventSource(nextSource_++);
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
