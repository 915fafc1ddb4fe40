#include "sim/partition.hh"

#include "sim/logging.hh"

namespace qpip::sim {

Partition::Partition(std::uint32_t id, std::string name,
                     const std::vector<Tick> &horizons)
    : id_(id), horizons_(&horizons)
{
    rename(std::move(name));
}

void
Partition::rename(std::string name)
{
    name_ = std::move(name);
    eq_.setLabel(name_);
}

Mailbox::Mailbox(Partition &src, Partition &dst, Tick lookahead)
    : src_(src), dst_(dst), lookahead_(lookahead)
{
    if (lookahead == 0)
        panic("Mailbox %s->%s: edge lookahead must be at least one tick",
              src_.name().c_str(), dst_.name().c_str());
}

void
Mailbox::panicBelowHorizon(Tick when) const
{
    panic("Mailbox p%u(%s) -> p%u(%s): post at tick %llu violates the "
          "destination's epoch horizon %llu (edge lookahead %llu "
          "declared too large for the link it models?)",
          src_.id(), src_.name().c_str(), dst_.id(),
          dst_.name().c_str(), static_cast<unsigned long long>(when),
          static_cast<unsigned long long>(dst_.epochHorizon()),
          static_cast<unsigned long long>(lookahead_));
}

} // namespace qpip::sim
