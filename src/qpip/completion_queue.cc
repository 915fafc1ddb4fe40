#include "qpip/completion_queue.hh"

#include "qpip/provider.hh"
#include "sim/logging.hh"

namespace qpip::verbs {

CompletionQueue::CompletionQueue(Provider &provider, std::size_t cap)
    : provider_(provider), nicAlive_(provider.nic().lifeToken()),
      ring_(cap), num_(provider.nic().createCq(&ring_))
{}

CompletionQueue::~CompletionQueue()
{
    if (!nicAlive_.expired())
        provider_.nic().destroyCq(num_);
}

bool
CompletionQueue::poll(Completion &out)
{
    auto &os = provider_.host().os();
    if (ring_.pop(out)) {
        os.charge(provider_.costs().pollCq);
        return true;
    }
    os.charge(provider_.costs().pollCqEmpty);
    return false;
}

void
CompletionQueue::wait(std::function<void(Completion)> cb)
{
    if (waiting_)
        sim::panic("CompletionQueue: overlapping wait");
    Completion c;
    if (poll(c)) {
        cb(c);
        return;
    }
    waiting_ = true;
    auto &os = provider_.host().os();
    os.charge(provider_.costs().waitSetup);
    // The ring owns the hook, so the hook may use this; the interrupt
    // it raises may run after the queue is gone.
    ring_.arm([this, cb = std::move(cb)]() mutable {
        auto &host_os = provider_.host().os();
        const sim::Cycles wake = provider_.costs().waitWakeup;
        host_os.interrupt([this, &prov = provider_, num = num_,
                           cb = std::move(cb), wake]() mutable {
            // The CQ's number resolves only while the queue lives.
            if (!prov.nic().hasCq(num))
                return;
            provider_.host().os().charge(wake);
            waiting_ = false;
            Completion c;
            if (!ring_.pop(c))
                sim::panic("CQ notify without entry");
            cb(c);
        });
    });
}

} // namespace qpip::verbs
