#include "qpip/queue_pair.hh"

#include "qpip/completion_queue.hh"
#include "qpip/provider.hh"
#include "qpip/srq.hh"
#include "sim/logging.hh"

namespace qpip::verbs {

QueuePair::QueuePair(Provider &provider, nic::QpType type,
                     std::shared_ptr<CompletionQueue> scq,
                     std::shared_ptr<CompletionQueue> rcq,
                     QpAttrs attrs)
    : provider_(provider), nic_(provider.nic()),
      nicAlive_(provider.nic().lifeToken()), type_(type),
      scq_(std::move(scq)), rcq_(std::move(rcq)),
      srq_(std::move(attrs.srq)), maxSendWr_(attrs.maxSendWr),
      maxRecvWr_(attrs.maxRecvWr), rdmaWindow_(attrs.rdmaWindowBytes)
{
    nic::QpCreateAttrs nic_attrs;
    nic_attrs.srq = srq_ ? srq_->num() : nic::invalidSrq;
    nic_attrs.rdmaWindowBytes = rdmaWindow_;
    num_ = nic_.createQp(type_, &rings_,
                         scq_ ? scq_->num() : nic::invalidCq,
                         rcq_ ? rcq_->num() : nic::invalidCq, nic_attrs);
}

QueuePair::~QueuePair()
{
    if (!nicAlive_.expired())
        nic_.destroyQp(num_);
}

void
QueuePair::bind(std::uint16_t port)
{
    provider_.nic().bindLocal(num_, port);
}

void
QueuePair::connect(const inet::SockAddr &remote, ConnectCb cb)
{
    provider_.nic().connect(num_, remote, std::move(cb));
}

void
QueuePair::disconnect()
{
    provider_.nic().disconnect(num_);
}

template <typename WrAt>
bool
QueuePair::postSends(std::size_t n, WrAt &&wr_at)
{
    if (n == 0)
        return true;
    if (rings_.sendQ.size() + n > maxSendWr_)
        return false;
    provider_.host().os().charge(
        provider_.costs().postSend +
        provider_.costs().postSendChained *
            static_cast<sim::Cycles>(n - 1));
    for (std::size_t i = 0; i < n; ++i)
        rings_.sendQ.push_back(wr_at(i));
    provider_.nic().postDoorbell(num_, true,
                                 static_cast<std::uint32_t>(n));
    return true;
}

bool
QueuePair::postSend(std::uint64_t wr_id, const MemoryRegion &mr,
                    std::size_t offset, std::size_t length,
                    const inet::SockAddr &remote)
{
    const SendWrSpec wr{wr_id, &mr, offset, length, remote};
    return postSendList({&wr, 1});
}

bool
QueuePair::postSendList(std::span<const SendWrSpec> wrs)
{
    return postSends(wrs.size(), [&](std::size_t i) {
        nic::SendWr wr;
        wr.id = wrs[i].wrId;
        wr.sge = wrs[i].mr->sge(wrs[i].offset, wrs[i].length);
        wr.remote = wrs[i].remote;
        return wr;
    });
}

bool
QueuePair::postRecv(std::uint64_t wr_id, const MemoryRegion &mr,
                    std::size_t offset, std::size_t length)
{
    const RecvWrSpec wr{wr_id, &mr, offset, length};
    return postRecvList({&wr, 1});
}

bool
QueuePair::postRecvList(std::span<const RecvWrSpec> wrs)
{
    if (srq_)
        sim::panic("qp%u: receive post on an SRQ-attached QP", num_);
    if (wrs.empty())
        return true;
    if (rings_.recvQ.size() + wrs.size() > maxRecvWr_)
        return false;
    provider_.host().os().charge(
        provider_.costs().postRecv +
        provider_.costs().postRecvChained *
            static_cast<sim::Cycles>(wrs.size() - 1));
    for (const auto &spec : wrs)
        rings_.recvQ.push_back(
            {spec.wrId, spec.mr->sge(spec.offset, spec.length)});
    provider_.nic().postDoorbell(
        num_, false, static_cast<std::uint32_t>(wrs.size()));
    return true;
}

bool
QueuePair::postWrite(std::uint64_t wr_id, const MemoryRegion &mr,
                     std::size_t offset, std::size_t length,
                     nic::MrKey rkey, std::uint64_t raddr)
{
    return postOneSided(wr_id, nic::WrOpcode::RdmaWrite, mr, offset,
                        length, rkey, raddr);
}

bool
QueuePair::postRead(std::uint64_t wr_id, const MemoryRegion &mr,
                    std::size_t offset, std::size_t length,
                    nic::MrKey rkey, std::uint64_t raddr)
{
    return postOneSided(wr_id, nic::WrOpcode::RdmaRead, mr, offset,
                        length, rkey, raddr);
}

bool
QueuePair::postOneSided(std::uint64_t wr_id, nic::WrOpcode opcode,
                        const MemoryRegion &mr, std::size_t offset,
                        std::size_t length, nic::MrKey rkey,
                        std::uint64_t raddr)
{
    if (rdmaWindow_ == 0)
        sim::panic("qp%u: one-sided post on a QP without "
                   "rdmaWindowBytes", num_);
    return postSends(1, [&](std::size_t) {
        nic::SendWr wr;
        wr.id = wr_id;
        wr.opcode = opcode;
        wr.sge = mr.sge(offset, length);
        wr.raddr = raddr;
        wr.rkey = rkey;
        return wr;
    });
}

} // namespace qpip::verbs
