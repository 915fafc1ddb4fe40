#include "qpip/provider.hh"

#include "qpip/completion_queue.hh"
#include "qpip/memory_region.hh"
#include "qpip/queue_pair.hh"
#include "qpip/srq.hh"

namespace qpip::verbs {

Provider::Provider(host::Host &host, nic::QpipNic &nic,
                   VerbsCostModel costs)
    : host_(host), nic_(nic), costs_(costs)
{}

std::shared_ptr<MemoryRegion>
Provider::registerMemory(std::span<std::uint8_t> memory,
                         nic::MrAccess access)
{
    host_.os().charge(costs_.registerMr);
    return std::make_shared<MemoryRegion>(*this, memory, access);
}

std::shared_ptr<CompletionQueue>
Provider::createCq(std::size_t cap)
{
    return std::make_shared<CompletionQueue>(*this, cap);
}

void
Provider::dropCallbacks()
{
    nic_.disarmCqs();
}

std::shared_ptr<SharedReceiveQueue>
Provider::createSrq(std::size_t max_wr)
{
    return std::make_shared<SharedReceiveQueue>(*this, max_wr);
}

std::shared_ptr<QueuePair>
Provider::createQp(nic::QpType type,
                   std::shared_ptr<CompletionQueue> scq,
                   std::shared_ptr<CompletionQueue> rcq,
                   std::size_t max_send_wr, std::size_t max_recv_wr)
{
    return createQp(type, std::move(scq), std::move(rcq),
                    QpAttrs{max_send_wr, max_recv_wr, nullptr, 0});
}

std::shared_ptr<QueuePair>
Provider::createQp(nic::QpType type,
                   std::shared_ptr<CompletionQueue> scq,
                   std::shared_ptr<CompletionQueue> rcq, QpAttrs attrs)
{
    return std::make_shared<QueuePair>(*this, type, std::move(scq),
                                       std::move(rcq),
                                       std::move(attrs));
}

} // namespace qpip::verbs
