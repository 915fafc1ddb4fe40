/**
 * @file
 * The completion queue: "the primary mechanism for detecting
 * completions". Poll() spins on the cache-resident ring; Wait() arms
 * an event and pays the interrupt + wakeup when it fires. Multiple
 * QPs may bind their channels to one CQ, giving the application a
 * single monitoring point.
 */

#pragma once

#include <functional>
#include <memory>

#include "nic/qp_state.hh"

namespace qpip::verbs {

class Provider;

using Completion = nic::Completion;
using WcStatus = nic::WcStatus;

/**
 * A completion queue. Its ring is registered with the NIC, which
 * names it by number, for as long as the queue lives.
 */
class CompletionQueue
{
  public:
    CompletionQueue(Provider &provider, std::size_t cap);
    ~CompletionQueue();

    CompletionQueue(const CompletionQueue &) = delete;
    CompletionQueue &operator=(const CompletionQueue &) = delete;

    nic::CqNum num() const { return num_; }

    /**
     * Non-blocking poll.
     * @return true and fill @p out when an entry was present.
     */
    bool poll(Completion &out);

    /**
     * Deliver the next completion to @p cb: immediately (polled) if
     * one is queued, otherwise arm the CQ event and deliver on
     * interrupt. One waiter at a time.
     */
    void wait(std::function<void(Completion)> cb);

    std::size_t depth() const { return ring_.depth(); }
    nic::CqRing &ring() { return ring_; }

  private:
    Provider &provider_;
    /** Expired once the NIC is destroyed (skip teardown calls). */
    std::weak_ptr<void> nicAlive_;
    nic::CqRing ring_;
    nic::CqNum num_;
    bool waiting_ = false;
};

} // namespace qpip::verbs
