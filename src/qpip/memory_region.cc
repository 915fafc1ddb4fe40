#include "qpip/memory_region.hh"

#include "qpip/provider.hh"
#include "sim/logging.hh"

namespace qpip::verbs {

MemoryRegion::MemoryRegion(Provider &provider,
                           std::span<std::uint8_t> memory,
                           nic::MrAccess access)
    : provider_(provider), nic_(provider.nic()),
      nicAlive_(provider.nic().lifeToken()), memory_(memory),
      key_(provider.nic().registerMemory(memory.data(), memory.size(),
                                         access))
{}

MemoryRegion::~MemoryRegion()
{
    if (!nicAlive_.expired())
        nic_.deregisterMemory(key_);
}

nic::Sge
MemoryRegion::sge(std::size_t offset, std::size_t length) const
{
    if (length > memory_.size() || offset > memory_.size() - length)
        sim::panic("SGE out of region bounds (%zu+%zu > %zu)", offset,
                   length, memory_.size());
    return nic::Sge{key_, offset, length};
}

} // namespace qpip::verbs
