#include "apps/verbs_util.hh"

#include "sim/simulation.hh"

namespace qpip::apps {

namespace {

/**
 * One spin poll. @p alone: the poll runs as its own event on the
 * idle-spin lane, so nothing after it in this event can use the CPU.
 */
void
pollOnce(verbs::Provider &prov, verbs::CompletionQueue &cq,
         std::function<void(verbs::Completion)> cb, bool alone)
{
    verbs::Completion c;
    if (cq.poll(c)) {
        cb(c);
        return;
    }
    // The empty poll charged the CPU; the next one starts the moment
    // it frees. Before the idle horizon nothing can fill this CQ or
    // touch this CPU, so every poll that would start before it is
    // empty too: charge those in one step and run only the first poll
    // at or past the horizon (DESIGN.md §9, spin-poll elision). A poll
    // called from inside another event leaves that to its retry: the
    // caller may still charge this CPU after it returns.
    auto &os = prov.host().os();
    auto &cpu = os.cpu();
    if (alone) {
        const sim::Cycles cost = prov.costs().pollCqEmpty;
        const sim::Tick period = os.cyclesToTicks(cost);
        const sim::Tick next = cpu.busyUntil();
        const sim::Tick horizon = os.idleHorizon(&cpu);
        // An unbounded horizon means the loop would spin forever; keep
        // polling one event at a time rather than charge up to maxTick.
        if (period != 0 && next < horizon && horizon != sim::maxTick)
            cpu.charge(cost, (horizon - next - 1) / period + 1);
    }
    // Schedule through the OS SimObject so the retry lands on the
    // host's partition queue under the parallel engine.
    os.scheduleIdle(
        &cpu,
        // qpip-lint: ref-capture-ok(cq is caller-owned and outlives the spin loop by the verbs contract)
        [&cq] { return cq.depth() != 0; }, cpu.busyUntil(),
        // qpip-lint: ref-capture-ok(prov and cq are caller-owned and outlive the spin loop by the verbs contract)
        [&prov, &cq, cb = std::move(cb)]() mutable {
            pollOnce(prov, cq, std::move(cb), true);
        });
}

} // namespace

void
spinPoll(verbs::Provider &prov, verbs::CompletionQueue &cq,
         std::function<void(verbs::Completion)> cb)
{
    pollOnce(prov, cq, std::move(cb), false);
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
    cq.wait([&cq, cb](verbs::Completion c) {
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
