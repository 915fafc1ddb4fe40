#include "qpip/connection.hh"

#include "qpip/completion_queue.hh"
#include "qpip/provider.hh"

namespace qpip::verbs {

Acceptor::Acceptor(Provider &provider, std::uint16_t port,
                   std::shared_ptr<CompletionQueue> scq,
                   std::shared_ptr<CompletionQueue> rcq)
    : provider_(provider), port_(port), scq_(std::move(scq)),
      rcq_(std::move(rcq))
{}

void
Acceptor::acceptOne(AcceptCb cb, std::size_t max_send_wr,
                    std::size_t max_recv_wr)
{
    acceptOne(std::move(cb),
              QpAttrs{max_send_wr, max_recv_wr, nullptr, 0});
}

void
Acceptor::acceptOne(AcceptCb cb, QpAttrs attrs)
{
    auto qp = provider_.createQp(nic::QpType::ReliableTcp, scq_, rcq_,
                                 std::move(attrs));
    const nic::QpNum num = qp->num();
    parked_.emplace(num, std::move(qp));
    // The NIC fires the callback only while the QP lives, and the QP
    // lives no longer than this Acceptor: it may use this.
    provider_.nic().acceptOn(port_, num, [this, num, cb = std::move(cb)] {
        cb(std::move(parked_.extract(num).mapped()));
    });
}

} // namespace qpip::verbs
