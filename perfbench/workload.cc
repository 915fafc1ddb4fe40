#include "workload.hh"

#include "nic/lanai.hh"

namespace perfbench {

using namespace qpip;

void
RepResult::error(const std::string &what)
{
    constexpr std::size_t keep = 8;
    if (errors.size() < keep)
        errors.push_back(what);
}

Counts
Probe::snapshot() const
{
    Counts c;
    c["sim.events"] = static_cast<double>(events());
    const auto &reg = sim->stats();

    // Per-connection TCP stats and per-link/NIC counters are many
    // objects under generated names: sum them by leaf.
    const std::map<std::string, std::string> tcpLeaves = {
        {"segsOut", "inet.segsOut"},
        {"segsIn", "inet.segsIn"},
        {"retransmits", "inet.retransmits"},
        {"timeouts", "inet.timeouts"},
        {"hdrPredicted", "inet.hdrPredicted"}};
    const std::map<std::string, std::string> otherLeaves = {
        {"packetsSent", "net.frames"},
        {"bytesSent", "net.bytes"},
        {"queueDrops", "net.queueDrops"},
        {"interrupts", "host.interrupts"}};
    for (const auto *table : {&tcpLeaves, &otherLeaves}) {
        for (const auto &[leaf, key] : *table)
            c[key] = 0.0;
    }
    for (const auto &path : reg.match("*")) {
        const auto &table = path.find(".tcp.") != std::string::npos
                                ? tcpLeaves
                                : otherLeaves;
        const auto it = table.find(path.substr(path.rfind('.') + 1));
        if (it == table.end())
            continue;
        if (const sim::Counter *counter = reg.counter(path))
            c[it->second] += static_cast<double>(counter->value());
    }

    double busy = 0.0;
    for (auto *h : appHosts)
        busy += static_cast<double>(h->cpu().busyTotal());
    c["host.cpuBusyTicks"] = busy;

    double rings = 0, notifies = 0, rnr = 0, rudRetx = 0, rudAcks = 0;
    for (auto *n : nics) {
        rings += static_cast<double>(n->doorbells().rings.value());
        notifies += static_cast<double>(n->cqNotifies.value());
        rnr += static_cast<double>(n->srqRnrHolds.value() +
                                   n->rudRnrHolds.value());
        rudRetx += static_cast<double>(n->rudRetransmits.value());
        rudAcks += static_cast<double>(n->rudAcksSent.value());
    }
    c["nic.doorbellRings"] = rings;
    c["nic.cqNotifies"] = notifies;
    c["nic.rnrHolds"] = rnr;
    c["nic.rudRetransmits"] = rudRetx;
    c["nic.rudAcks"] = rudAcks;

    const std::string fw = server != nullptr ? server->fw().name() : "";
    c["nic.fwBusyTicks"] = static_cast<double>(
        server != nullptr ? reg.counterValue(fw + ".busyTicks") : 0);
    for (std::size_t i = 0; i < nic::numFwStages; ++i) {
        const char *tag = nic::fwStageTag(static_cast<nic::FwStage>(i));
        const sim::SampleStat *s =
            server != nullptr ? reg.sample(fw + ".stage." + tag) : nullptr;
        c[std::string("nic.stageUs.") + tag] =
            s != nullptr ? s->total() : 0.0;
    }
    c["nic.ctxHits"] = static_cast<double>(
        server != nullptr ? server->qpCache().hits.value() : 0);
    c["nic.ctxMisses"] = static_cast<double>(
        server != nullptr ? server->qpCache().misses.value() : 0);
    c["nic.ctxWritebacks"] = static_cast<double>(
        server != nullptr ? server->ctxWritebacks.value() : 0);

    for (const char *leaf : {"epochs", "mailboxPosts", "horizonStalls"}) {
        c[std::string("parallel.") + leaf] = static_cast<double>(
            reg.counterValue(std::string("parallel.") + leaf));
    }
    return c;
}

void
Probe::finish(RepResult &r) const
{
    r.counts = snapshot();
    for (auto &[k, v] : r.counts) {
        const auto it = before_.find(k);
        v -= it == before_.end() ? 0.0 : it->second;
    }
    const double span = static_cast<double>(appHosts.size()) *
                        static_cast<double>(r.simTicks);
    r.hostCpuShare = span > 0 ? r.counts["host.cpuBusyTicks"] / span : 0.0;
}

void
VerbsTally::addTo(Counts &c) const
{
    c["qpip.posts"] = static_cast<double>(posts);
    c["qpip.refusedPosts"] = static_cast<double>(refused);
    c["qpip.errorCompletions"] = static_cast<double>(errorCompletions);
}

std::uint64_t
InputRng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace perfbench
