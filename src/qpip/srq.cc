#include "qpip/srq.hh"

#include "qpip/provider.hh"
#include "qpip/queue_pair.hh"

namespace qpip::verbs {

SharedReceiveQueue::SharedReceiveQueue(Provider &provider,
                                       std::size_t max_wr)
    : provider_(provider), nic_(provider.nic()),
      nicAlive_(provider.nic().lifeToken()), maxWr_(max_wr),
      num_(provider.nic().createSrq(&ring_))
{}

SharedReceiveQueue::~SharedReceiveQueue()
{
    if (!nicAlive_.expired())
        nic_.destroySrq(num_);
}

bool
SharedReceiveQueue::postRecv(std::uint64_t wr_id,
                             const MemoryRegion &mr,
                             std::size_t offset, std::size_t length)
{
    const RecvWrSpec wr{wr_id, &mr, offset, length};
    return postRecvList({&wr, 1});
}

bool
SharedReceiveQueue::postRecvList(std::span<const RecvWrSpec> wrs)
{
    if (wrs.empty())
        return true;
    if (ring_.recvQ.size() + wrs.size() > maxWr_)
        return false;
    provider_.host().os().charge(
        provider_.costs().postRecv +
        provider_.costs().postRecvChained *
            static_cast<sim::Cycles>(wrs.size() - 1));
    for (const auto &spec : wrs)
        ring_.recvQ.push_back(
            {spec.wrId, spec.mr->sge(spec.offset, spec.length)});
    provider_.nic().postSrqDoorbell(
        num_, static_cast<std::uint32_t>(wrs.size()));
    return true;
}

} // namespace qpip::verbs
