#include "net/link.hh"

#include <cmath>

#include "net/pcap.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"
#include "sim/trace.hh"

namespace qpip::net {

using sim::panic;
using sim::warn;

LinkConfig
gigabitEthernetLink()
{
    LinkConfig cfg;
    cfg.bitsPerSec = 1e9;
    cfg.propDelay = sim::oneUs; // phy + cable across a machine room
    cfg.mtu = 1500;
    // preamble(8) + MACs(12) + type(2) + FCS(4) + IFG(12)
    cfg.overheadBytes = 38;
    cfg.txQueueCap = 512;
    return cfg;
}

LinkConfig
myrinetLink(std::uint32_t mtu)
{
    LinkConfig cfg;
    cfg.bitsPerSec = 2e9;
    cfg.propDelay = sim::oneUs / 2;
    cfg.mtu = mtu;
    cfg.overheadBytes = 8; // route bytes + type + CRC
    // Myrinet applies link-level backpressure instead of dropping;
    // a deep queue approximates that losslessness.
    cfg.txQueueCap = 1 << 20;
    return cfg;
}

namespace {

/** Every LinkCounters member, under its own name. */
const sim::StatTable<LinkCounters> &
linkCountersTable()
{
    static const sim::StatTable<LinkCounters> table = [] {
        sim::StatTable<LinkCounters> t;
        t.add("packetsSent", &LinkCounters::packetsSent);
        t.add("bytesSent", &LinkCounters::bytesSent);
        t.add("oversizeDrops", &LinkCounters::oversizeDrops);
        t.add("queueDrops", &LinkCounters::queueDrops);
        t.add("faultDrops", &LinkCounters::faultDrops);
        t.add("faultDups", &LinkCounters::faultDups);
        t.add("faultCorruptions", &LinkCounters::faultCorruptions);
        t.add("faultReorders", &LinkCounters::faultReorders);
        return t;
    }();
    return table;
}

} // namespace

Link::Link(sim::Simulation &sim, std::string name, LinkConfig config)
    : SimObject(sim, std::move(name)), cfg_(config)
{
    for (std::size_t side = 0; side < dir_.size(); ++side) {
        Direction &d = dir_[side];
        d.eq = &eventQueue();
        d.source = sim.addSource();
        d.faultRng.seed(sim::streamSeed(sim.seed(), this->name(), side));
        d.stats.init(sim.stats(),
                     this->name() + (side == 0 ? ".side0" : ".side1"),
                     linkCountersTable(), d.counters);
    }
}

void
Link::attach(int side, NetReceiver &receiver)
{
    dir_.at(static_cast<std::size_t>(side)).receiver = &receiver;
}

sim::Tick
Link::serializationDelay(std::size_t wire_bytes) const
{
    const double bits = static_cast<double>(wire_bytes) * 8.0;
    return static_cast<sim::Tick>(
        std::llround(bits / cfg_.bitsPerSec * 1e12));
}

void
Link::bind(const std::array<LinkBoundary, 2> &sides)
{
    for (std::size_t side = 0; side < dir_.size(); ++side) {
        dir_[side].eq = sides[side].eq;
        dir_[side].outbox = sides[side].outbox;
    }
    checkTaps();
}

void
Link::setSideTap(int side, PcapWriter &writer)
{
    dir_.at(static_cast<std::size_t>(side)).tap = &writer;
    checkTaps();
}

/**
 * Two directions that run on different queues may transmit at once:
 * one writer fed by both would race and interleave
 * nondeterministically.
 */
void
Link::checkTaps() const
{
    if (dir_[0].eq != dir_[1].eq && dir_[0].tap != nullptr &&
        dir_[0].tap == dir_[1].tap) {
        panic("%s: a link whose directions run in two partitions cannot "
              "feed one pcap writer from both (tapLink); give each side "
              "its own writer with tapLinkSide",
              name().c_str());
    }
}

/**
 * Every mutable thing this touches — busyUntil, counters, the fault
 * stream, the tap, the queue — belongs to the sending direction, so
 * a bound direction runs entirely inside its sending partition.
 */
bool
Link::send(int from_side, PacketPtr pkt)
{
    auto &tx = dir_.at(static_cast<std::size_t>(from_side));
    const int to_side = from_side ^ 1;
    LinkCounters &counters = tx.counters;

    if (pkt->data.size() > cfg_.mtu) {
        counters.oversizeDrops.inc();
        warn("%s: dropping oversize packet (%zu > mtu %u)",
             name().c_str(), pkt->data.size(), cfg_.mtu);
        return false;
    }

    const sim::Tick now = tx.eq->now();
    // Model queue depth by how far ahead of real time the transmitter
    // is already committed.
    if (tx.busyUntil > now) {
        const sim::Tick backlog = tx.busyUntil - now;
        const sim::Tick one_mtu =
            serializationDelay(cfg_.mtu + cfg_.overheadBytes);
        if (backlog > one_mtu * cfg_.txQueueCap) {
            counters.queueDrops.inc();
            return false;
        }
    }

    pkt->linkOverheadBytes = cfg_.overheadBytes;
    if (pkt->injectedAt == 0)
        pkt->injectedAt = now;

    const sim::Tick start = std::max(now, tx.busyUntil);
    const sim::Tick ser = serializationDelay(pkt->wireBytes());
    tx.busyUntil = start + ser;

    counters.packetsSent.inc();
    counters.bytesSent.inc(pkt->wireBytes());

    const FaultDecision fault = rollFaults(*pkt, faultCfg_, tx.faultRng);
    if (fault.drop)
        counters.faultDrops.inc();
    if (fault.corrupt)
        counters.faultCorruptions.inc();
    if (fault.duplicate)
        counters.faultDups.inc();
    if (fault.extraDelay > 0)
        counters.faultReorders.inc();

    if (tx.tap != nullptr)
        tx.tap->record(*pkt, start);
    // A split engine refuses tracing, so the tracer is on only where
    // one partition runs every link.
    if (tracer().enabled()) {
        // Tag with the direction's own sequence number (not pkt->id,
        // which is a process-global counter and would break same-seed
        // trace comparisons across runs).
        tracer().span(name(), "tx", start, ser,
                      sim::strfmt("{\"seq\": %llu, \"bytes\": %zu, "
                                  "\"side\": %d}",
                                  static_cast<unsigned long long>(
                                      counters.packetsSent.value()),
                                  pkt->wireBytes(), from_side));
    }

    if (fault.drop)
        return true; // consumed the wire, never arrives

    NetReceiver *receiver =
        dir_.at(static_cast<std::size_t>(to_side)).receiver;
    if (receiver == nullptr)
        panic("%s: side %d has no receiver", name().c_str(), to_side);

    const sim::Tick arrive =
        tx.busyUntil + cfg_.propDelay + fault.extraDelay;
    const auto deliver = [&](PacketPtr p) {
        auto arrival = [receiver, p = std::move(p)] {
            receiver->onPacket(p);
        };
        const sim::EventKey key = tx.source.key(arrive);
        if (tx.outbox != nullptr)
            tx.outbox->post(key, std::move(arrival));
        else
            tx.eq->schedule(key, std::move(arrival));
    };
    deliver(pkt);
    if (fault.duplicate)
        deliver(clonePacket(*pkt));
    return true;
}

} // namespace qpip::net
