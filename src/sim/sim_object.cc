#include "sim/sim_object.hh"

#include "sim/simulation.hh"

namespace qpip::sim {

SimObject::SimObject(Simulation &sim, std::string name)
    : sim_(sim), name_(std::move(name)), eq_(&sim_.eventQueue()),
      source_(sim_.addSource())
{
    sim_.registerObject(this);
}

SimObject::~SimObject()
{
    sim_.unregisterObject(this);
}

} // namespace qpip::sim
