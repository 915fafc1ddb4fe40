#include "apps/verbs_util.hh"

#include "sim/simulation.hh"

namespace qpip::apps {

void
spinPoll(verbs::Provider &prov, verbs::CompletionQueue &cq,
         std::function<void(verbs::Completion)> cb)
{
    verbs::Completion c;
    if (cq.poll(c)) {
        cb(c);
        return;
    }
    // The empty poll charged the CPU; the retry would start the moment
    // it frees, and so would every poll after it until a push lands.
    // Park on the CPU instead: it charges those empty polls when
    // anything could tell, and the push wakes the first poll that sees
    // the entry (DESIGN.md §9, park-and-wake spinning).
    prov.host().os().cpu().park(
        cq.ring().spinner(), prov.costs().pollCqEmpty,
        // qpip-lint: ref-capture-ok(prov and cq are caller-owned and outlive the spin loop by the verbs contract)
        [&prov, &cq, cb = std::move(cb)]() mutable {
            spinPoll(prov, cq, std::move(cb));
        });
}

void
spinLoop(verbs::Provider &prov, verbs::CompletionQueue &cq,
         std::function<void(verbs::Completion)> cb)
{
    spinPoll(prov, cq, [&prov, &cq, cb](verbs::Completion c) {
        cb(c);
        spinLoop(prov, cq, std::move(cb));
    });
}

void
waitLoop(verbs::CompletionQueue &cq,
         std::function<void(verbs::Completion)> cb)
{
    // The loop hands its one callback on: moved, never copied.
    cq.wait([&cq, cb = std::move(cb)](verbs::Completion c) mutable {
        cb(c);
        waitLoop(cq, std::move(cb));
    });
}

void
periodicReaper(verbs::Provider &prov, sim::Tick interval,
               std::function<bool()> drain)
{
    if (!drain())
        return;
    auto &os = prov.host().os();
    os.scheduleIn(
        // qpip-lint: ref-capture-ok(prov is caller-owned and outlives the reaper loop by the verbs contract)
        interval, [&prov, interval, drain = std::move(drain)]() mutable {
            periodicReaper(prov, interval, std::move(drain));
        });
}

} // namespace qpip::apps
