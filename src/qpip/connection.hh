/**
 * @file
 * Connection-management helpers over the raw verbs: an Acceptor that
 * keeps a pool of idle QPs parked on a monitored TCP port (the
 * paper's server-side rendezvous: "the server application instructs
 * the interface to monitor a TCP port for incoming connections ...
 * that mates the connection to an idle QP in the server application").
 */

#pragma once

#include <functional>
#include <map>
#include <memory>

#include "qpip/queue_pair.hh"

namespace qpip::verbs {

class Provider;
class CompletionQueue;

/**
 * Server-side rendezvous helper. It owns each QP it parks until a
 * client mates to it; dropping the Acceptor destroys the QPs still
 * parked.
 */
class Acceptor
{
  public:
    using AcceptCb = std::function<void(std::shared_ptr<QueuePair>)>;

    /**
     * @param scq,rcq completion queues for accepted QPs.
     */
    Acceptor(Provider &provider, std::uint16_t port,
             std::shared_ptr<CompletionQueue> scq,
             std::shared_ptr<CompletionQueue> rcq);

    Acceptor(const Acceptor &) = delete;
    Acceptor &operator=(const Acceptor &) = delete;

    /**
     * Park one idle QP on the port; @p cb fires with the connected QP
     * when a client mates to it, and the Acceptor lets go of it.
     */
    void acceptOne(AcceptCb cb, std::size_t max_send_wr = 512,
                   std::size_t max_recv_wr = 512);

    /** As above, with full QP attributes (SRQ, RDMA window). */
    void acceptOne(AcceptCb cb, QpAttrs attrs);

    std::uint16_t port() const { return port_; }

  private:
    Provider &provider_;
    std::uint16_t port_;
    std::shared_ptr<CompletionQueue> scq_;
    std::shared_ptr<CompletionQueue> rcq_;
    /** The QPs parked here and not yet mated, by number. */
    std::map<nic::QpNum, std::shared_ptr<QueuePair>> parked_;
};

} // namespace qpip::verbs
