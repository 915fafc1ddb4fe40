/**
 * @file
 * Spin-poll pins. apps::spinPoll parks on its CPU while its CQ is
 * empty: the CPU charges the empty polls it owes arithmetically and a
 * push schedules only the poll that sees the entry, instead of one
 * event per empty poll. These tests drive spin-polling
 * workloads — the QPIP ping-pong apps, two spin loops sharing one
 * CPU, a spinner whose CPU also runs deferred work, two symmetric
 * hosts stopped mid-spin by a predicate, an unpartitioned run as its
 * engine's one partition, and a spinning pair under the parallel
 * engine, one partition on a star and two on a dual-star —
 * and compare every observable against values
 * recorded from the poll-per-event loop: the final tick, each host's
 * busyTotal/busyUntil, the run's own record (RTTs, completion ticks,
 * CPU state at every stop), the stats JSON and the wire captures.
 */

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/pingpong.hh"
#include "apps/testbed.hh"
#include "apps/verbs_util.hh"
#include "engine_stats.hh"
#include "golden.hh"
#include "net/pcap.hh"

using namespace qpip;
using namespace qpip::apps;
using verbs::Completion;

namespace {

using Taps = std::vector<std::unique_ptr<net::PcapWriter>>;

/** FNV-1a, folded a byte at a time. */
struct Digest
{
    std::uint64_t h = 1469598103934665603ull;

    void
    byte(std::uint8_t b)
    {
        h ^= b;
        h *= 1099511628211ull;
    }

    void
    word(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void real(double d) { word(std::bit_cast<std::uint64_t>(d)); }
};

/** Tap both directions of every fabric edge, in deterministic order. */
Taps
tapAllEdges(net::Fabric &fabric)
{
    Taps taps;
    for (const auto &e : fabric.edges()) {
        for (int side = 0; side < 2; ++side) {
            taps.push_back(std::make_unique<net::PcapWriter>());
            net::tapLinkSide(*e.link, side, *taps.back());
        }
    }
    return taps;
}

/** Append busyTotal and busyUntil of every host to @p d. */
void
foldCpus(QpipTestbed &bed, Digest &d)
{
    for (std::size_t i = 0; i < bed.numHosts(); ++i) {
        d.word(bed.host(i).cpu().busyTotal());
        d.word(bed.host(i).cpu().busyUntil());
    }
}

/** What a spin-polling run leaves behind, read after it stops. */
struct Pins
{
    sim::Tick now = 0;
    /** busyTotal and busyUntil of host 0, then of host 1, ... */
    std::vector<sim::Tick> cpu;
    /** The stats JSON. */
    std::string stats;
    /** Every tapped capture, in tap order. */
    std::uint64_t pcap = 0;
    /** The run's own record. */
    std::uint64_t app = 0;
    std::uint64_t executed = 0;
    /** Engine partitions (1 unpartitioned) and the mail they exchanged. */
    std::size_t partitions = 0;
    std::uint64_t mailboxPosts = 0;
};

Pins
collect(QpipTestbed &bed, const Taps &taps, const Digest &app)
{
    Pins p;
    p.now = bed.sim().now();
    for (std::size_t i = 0; i < bed.numHosts(); ++i) {
        p.cpu.push_back(bed.host(i).cpu().busyTotal());
        p.cpu.push_back(bed.host(i).cpu().busyUntil());
    }
    p.stats = bed.sim().stats().jsonDump();
    Digest pcap;
    for (const auto &t : taps) {
        for (std::uint8_t b : t->bytes())
            pcap.byte(b);
    }
    p.pcap = pcap.h;
    p.app = app.h;
    p.executed = bed.engine()->executed();
    p.partitions = bed.engine()->numPartitions();
    p.mailboxPosts = bed.sim().stats().counterValue("parallel.mailboxPosts");
    return p;
}

/** Expect @p p's pins, its stats JSON being the golden @p stats. */
void
expectPins(const Pins &p, sim::Tick now, const std::vector<sim::Tick> &cpu,
           const std::string &stats, std::uint64_t pcap, std::uint64_t app)
{
    EXPECT_EQ(p.now, now);
    EXPECT_EQ(p.cpu, cpu);
    test::expectMatchesGolden(p.stats, stats);
    EXPECT_EQ(p.pcap, pcap);
    EXPECT_EQ(p.app, app);
}

/**
 * A QPIP ping-pong app run on @p topology; @p threads > 0 partitions
 * the testbed. With @p stop the run goes on to that fixed tick before
 * the pins are read.
 */
Pins
pingPong(bool reliable, int threads = 0,
         FabricTopology topology = FabricTopology::Star, sim::Tick stop = 0)
{
    QpipTestbed bed(2, qpipNativeMtu, 1, nic::QpipNicParams{},
                    host::HostCostModel{}, IpFamily::V6, topology);
    if (threads > 0)
        bed.enableParallel(threads);
    auto taps = tapAllEdges(bed.fabric());
    const PingPongResult r = reliable ? runQpipTcpPingPong(bed, 64, 64)
                                      : runQpipUdpPingPong(bed, 64, 64);
    if (stop > 0)
        bed.sim().runUntil(stop);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.iterations, 64u);
    Digest app;
    app.real(r.rttUs);
    app.word(r.iterations);
    return collect(bed, taps, app);
}

/**
 * Echo rig: host 1 echoes every message it receives on any of its RC
 * QPs, all on one CQ with one spin loop; host 0 runs one RC QP per
 * client, each on its own CQ with its own spin loop, so two clients
 * put two spinners on host 0's CPU. With @p serve_work the server
 * computes for a varying time on its CPU (cpu().run) before each
 * echo, the way a request handler would. The record is every reply's
 * arrival tick and client index.
 */
struct EchoRig
{
    static constexpr std::uint16_t port = 900;
    static constexpr std::size_t slotBytes = 1024;

    EchoRig(QpipTestbed &b, std::size_t clients, std::size_t rounds,
            bool serve_work)
        : bed(b), taps(tapAllEdges(b.fabric())), rounds(rounds),
          server(b.provider(1)), client(b.provider(0)),
          scq(server.createCq()), sbuf(clients * slotBytes),
          cbuf(2 * clients * slotBytes),
          smr(server.registerMemory(sbuf)),
          cmr(client.registerMemory(cbuf)),
          acc(server, port, scq, scq), done(clients, 0)
    {
        for (std::size_t i = 0; i < clients; ++i) {
            acc.acceptOne([this](std::shared_ptr<verbs::QueuePair> q) {
                const std::size_t slot = sqps.size();
                q->postRecv(slot, *smr, slot * slotBytes, slotBytes);
                sqps[q->num()] = {q, slot};
            });
            ccqs.push_back(client.createCq());
            cqps.push_back(client.createQp(nic::QpType::ReliableTcp,
                                           ccqs.back(), ccqs.back()));
            cqps.back()->connect(bed.addr(1, port),
                                 [this](bool ok) { connected += ok; });
        }
        bed.sim().runUntilCondition(
            [this, clients] {
                return connected == clients && sqps.size() == clients;
            },
            bed.sim().now() + 10 * sim::oneSec);

        spinLoop(server, *scq, [this, serve_work](Completion c) {
            if (c.isSend)
                return;
            const auto &entry = sqps.at(c.qp);
            auto q = entry.first;
            const std::size_t s = entry.second;
            const std::size_t len = c.byteLen;
            q->postRecv(s, *smr, s * slotBytes, slotBytes);
            if (!serve_work) {
                q->postSend(100 + s, *smr, s * slotBytes, len);
                return;
            }
            const sim::Cycles work = 37 + (len * 131) % 700;
            bed.host(1).cpu().run(work, [this, q, s, len] {
                q->postSend(100 + s, *smr, s * slotBytes, len);
            });
        });
        for (std::size_t i = 0; i < clients; ++i) {
            spinLoop(client, *ccqs[i], [this, i](Completion c) {
                if (c.isSend)
                    return;
                record.word(bed.sim().now());
                record.word(i);
                if (++done[i] < this->rounds)
                    send(i);
            });
            send(i);
        }
    }

    void
    send(std::size_t i)
    {
        const std::size_t len = 16 + (done[i] * 53 + i * 211) % 900;
        const std::size_t rx = (2 * i + 1) * slotBytes;
        cqps[i]->postRecv(i, *cmr, rx, slotBytes);
        cqps[i]->postSend(50 + i, *cmr, 2 * i * slotBytes, len);
    }

    bool
    finished() const
    {
        for (const std::size_t d : done) {
            if (d < rounds)
                return false;
        }
        return true;
    }

    QpipTestbed &bed;
    Taps taps;
    std::size_t rounds;
    verbs::Provider &server;
    verbs::Provider &client;
    std::shared_ptr<verbs::CompletionQueue> scq;
    std::vector<std::uint8_t> sbuf, cbuf;
    std::shared_ptr<verbs::MemoryRegion> smr, cmr;
    verbs::Acceptor acc;
    std::map<nic::QpNum,
             std::pair<std::shared_ptr<verbs::QueuePair>, std::size_t>>
        sqps;
    std::vector<std::shared_ptr<verbs::CompletionQueue>> ccqs;
    std::vector<std::shared_ptr<verbs::QueuePair>> cqps;
    std::size_t connected = 0;
    std::vector<std::size_t> done;
    Digest record;
};

/**
 * Two hosts joined by one RC QP pair, each spin-looping on its own
 * CQ. Both loops start in the same event. In symmetric mode every
 * received message makes its host send again, so both hosts send at
 * the same tick and take their completions at the same tick; in echo
 * mode host 0 pings and host 1 echoes. The run stops by predicate
 * after each of host 0's receives, mid-spin on both CPUs, and the
 * record is the tick and both CPUs' counters at every stop.
 */
struct StopRig
{
    static constexpr std::uint16_t port = 901;
    static constexpr std::size_t msgBytes = 200;

    StopRig(QpipTestbed &b, bool symmetric)
        : bed(b), harness(b.sim().addSource()),
          taps(tapAllEdges(b.fabric())), symmetric(symmetric),
          cq0(b.provider(0).createCq()), cq1(b.provider(1).createCq()),
          buf0(4096), buf1(4096),
          mr0(b.provider(0).registerMemory(buf0)),
          mr1(b.provider(1).registerMemory(buf1)),
          acc(b.provider(1), port, cq1, cq1)
    {
        acc.acceptOne([this](std::shared_ptr<verbs::QueuePair> q) {
            qp1 = std::move(q);
        });
        qp0 = b.provider(0).createQp(nic::QpType::ReliableTcp, cq0, cq0);
        bool connected = false;
        qp0->connect(bed.addr(1, port),
                     [&connected](bool ok) { connected = ok; });
        bed.sim().runUntilCondition(
            [&] { return connected && qp1 != nullptr; },
            bed.sim().now() + 10 * sim::oneSec);
        for (std::uint64_t i = 0; i < 64; ++i) {
            qp0->postRecv(i, *mr0, 0, msgBytes);
            qp1->postRecv(i, *mr1, 0, msgBytes);
        }
        bed.sim().eventQueue().schedule(
            harness.key(bed.sim().now() + 3 * sim::oneUs),
            [this] { start(); });
    }

    void
    start()
    {
        spinLoop(bed.provider(0), *cq0, [this](Completion c) {
            if (c.isSend)
                return;
            ++recv0;
            qp0->postRecv(64 + recv0, *mr0, 0, msgBytes);
            qp0->postSend(1, *mr0, 0, msgBytes - recv0 % 7);
        });
        spinLoop(bed.provider(1), *cq1, [this](Completion c) {
            if (c.isSend)
                return;
            ++recv1;
            qp1->postRecv(64 + recv1, *mr1, 0, msgBytes);
            qp1->postSend(1, *mr1, 0, msgBytes - recv1 % 7);
        });
        qp0->postSend(1, *mr0, 0, msgBytes);
        if (symmetric)
            qp1->postSend(1, *mr1, 0, msgBytes);
    }

    /** Stop after each of host 0's next @p stops receives. */
    void
    run(std::size_t stops)
    {
        for (std::size_t k = 0; k < stops; ++k) {
            const std::size_t want = recv0 + 1;
            bed.sim().runUntilCondition(
                [this, want] { return recv0 >= want; },
                bed.sim().now() + sim::oneSec);
            record.word(bed.sim().now());
            record.word(recv0);
            record.word(recv1);
            foldCpus(bed, record);
        }
    }

    QpipTestbed &bed;
    sim::EventSource harness;
    Taps taps;
    bool symmetric;
    std::shared_ptr<verbs::CompletionQueue> cq0, cq1;
    std::vector<std::uint8_t> buf0, buf1;
    std::shared_ptr<verbs::MemoryRegion> mr0, mr1;
    verbs::Acceptor acc;
    std::shared_ptr<verbs::QueuePair> qp0, qp1;
    std::size_t recv0 = 0;
    std::size_t recv1 = 0;
    Digest record;
};

} // namespace

// The expected values below were recorded from the poll-per-event
// spin loop (every empty poll one event); parking and waking on a push
// must reproduce them exactly. The capture digests were re-recorded
// once, when TCP initial sequence numbers moved to per-object streams,
// and the stats dumps (goldens in tests/golden/spin_*.json) once, when
// each link direction got its own counters, which moved the link
// paths only; every tick and counter is the poll-per-event loop's.

TEST(SpinPoll, QpipTcpPingPongMatchesEveryPoll)
{
    const Pins p = pingPong(true);
    expectPins(p, 8219117744ull,
               {8156959202ull, 8220001380ull, 8139166461ull, 8219148639ull},
               "spin_qpip_tcp_pingpong.json", 11473629942854498038ull,
               13443311829559910404ull);
    // The poll-per-event loop ran this many events; parked spinners
    // leave at least 40x fewer (3194).
    EXPECT_LE(p.executed * 40, 146069u);
}

TEST(SpinPoll, QpipUdpPingPongMatchesEveryPoll)
{
    const Pins p = pingPong(false);
    expectPins(p, 5286545902ull,
               {5287429538ull, 5287429538ull, 5286647718ull, 5286647718ull},
               "spin_qpip_udp_pingpong.json", 17367432849561218645ull,
               3696847959279219634ull);
}

TEST(SpinPoll, TwoSpinnersShareOneCpu)
{
    QpipTestbed bed(2);
    EchoRig rig(bed, 2, 40, false);
    // Run in slices that end mid-spin: each run bound caps the
    // charged polls.
    Digest slices;
    for (int i = 0; i < 4000 && !rig.finished(); ++i) {
        bed.sim().runFor(37 * sim::oneUs);
        slices.word(bed.sim().now());
        foldCpus(bed, slices);
    }
    ASSERT_TRUE(rig.finished());
    rig.record.word(slices.h);
    expectPins(collect(bed, rig.taps, rig.record), 9532729205ull,
               {9407607482ull, 9532882142ull, 9408662026ull, 9532754868ull},
               "spin_two_spinners.json", 3612453148997574262ull,
               7856475443122747818ull);
}

TEST(SpinPoll, SpinnerCpuAlsoRunsDeferredWork)
{
    QpipTestbed bed(2);
    EchoRig rig(bed, 1, 60, true);
    bed.sim().runUntilCondition([&] { return rig.finished(); },
                                bed.sim().now() + sim::oneSec);
    ASSERT_TRUE(rig.finished());
    expectPins(collect(bed, rig.taps, rig.record), 8654159963ull,
               {8575170512ull, 8655152690ull, 8574214113ull, 8654196291ull},
               "spin_deferred_work.json", 14519813961999683829ull,
               8112841586691970436ull);
}

TEST(SpinPoll, SymmetricHostsStopMidSpin)
{
    QpipTestbed bed(2);
    StopRig rig(bed, true);
    rig.run(24);
    expectPins(collect(bed, rig.taps, rig.record), 2171012827ull,
               {2094841558ull, 2174823736ull, 2091030649ull, 2171012827ull},
               "spin_symmetric_stop.json", 4905878032697367992ull,
               5088550138493266799ull);
}

TEST(SpinPoll, EchoStopsMidSpinOnTheIdlePeer)
{
    QpipTestbed bed(2);
    StopRig rig(bed, false);
    rig.run(24);
    expectPins(collect(bed, rig.taps, rig.record), 3005024430ull,
               {2928853161ull, 3008835339ull, 2925133160ull, 3005115338ull},
               "spin_echo_stop.json", 9119458445384835325ull,
               8447952128469669650ull);
}

// Same-tick rule: a push that lands exactly on a poll tick is ordered
// against that poll by source id (both run at the default priority),
// whenever it was scheduled. A host's OS is built before its CPU, so
// its push comes first; an object built after the testbed comes after.

TEST(SpinPoll, CompletionOnAPollTickIsSeenOnThatTick)
{
    // The OS schedules the push half a period before its tick, after
    // the poll before it already ran, yet the push runs before the
    // poll on that tick: the poll finds the entry and is not charged
    // as empty. The read of the CPU in the same event sees the polls
    // owed before it charged.
    QpipTestbed bed(2);
    sim::EventSource harness = bed.sim().addSource();
    auto &prov = bed.provider(0);
    auto cq = prov.createCq();
    auto &cpu = bed.host(0).cpu();
    auto &os = bed.host(0).os();
    ASSERT_LT(os.sourceId(), cpu.sourceId());
    const sim::Tick period = os.cyclesToTicks(prov.costs().pollCqEmpty);
    const sim::Tick t0 = bed.sim().now() + sim::oneUs;
    const sim::Tick at = t0 + 1000 * period;
    ASSERT_LE(cpu.busyUntil(), t0);
    sim::Tick seen = 0;
    sim::Tick busy_before = 0;
    bed.sim().eventQueue().schedule(harness.key(at - period / 2), [&] {
        busy_before = cpu.busyUntil();
        os.schedule(at, [&] { cq->ring().push(Completion{}); });
    });
    bed.sim().eventQueue().schedule(harness.key(t0), [&] {
        spinPoll(prov, *cq, [&](Completion) { seen = bed.sim().now(); });
    });
    bed.sim().runUntil(at + sim::oneMs);
    EXPECT_EQ(seen, at);
    EXPECT_EQ(busy_before, at);
    EXPECT_EQ(cpu.busyUntil(),
              at + os.cyclesToTicks(prov.costs().pollCq));
}

TEST(SpinPoll, LatePushOnAPollTickIsSeenOnePeriodLater)
{
    // The same push, scheduled at the same time, from an object built
    // after the CPU: the poll on the push's tick runs first and finds
    // the CQ empty, and the next one sees the entry.
    QpipTestbed bed(2);
    sim::EventSource harness = bed.sim().addSource();
    auto &prov = bed.provider(0);
    auto cq = prov.createCq();
    auto &cpu = bed.host(0).cpu();
    auto &os = bed.host(0).os();
    sim::SimObject pusher(bed.sim(), "pusher");
    ASSERT_GT(pusher.sourceId(), cpu.sourceId());
    const sim::Tick period = os.cyclesToTicks(prov.costs().pollCqEmpty);
    const sim::Tick t0 = bed.sim().now() + sim::oneUs;
    const sim::Tick at = t0 + 1000 * period;
    ASSERT_LE(cpu.busyUntil(), t0);
    const sim::Tick busy0 = cpu.busyTotal();
    sim::Tick seen = 0;
    bed.sim().eventQueue().schedule(harness.key(at - period / 2), [&] {
        pusher.schedule(at, [&] { cq->ring().push(Completion{}); });
    });
    bed.sim().eventQueue().schedule(harness.key(t0), [&] {
        spinPoll(prov, *cq, [&](Completion) { seen = bed.sim().now(); });
    });
    bed.sim().runUntil(at + sim::oneMs);
    EXPECT_EQ(seen, at + period);
    EXPECT_EQ(cpu.busyUntil(),
              at + period + os.cyclesToTicks(prov.costs().pollCq));
    EXPECT_EQ(cpu.busyTotal() - busy0,
              1001 * period + os.cyclesToTicks(prov.costs().pollCq));
}

TEST(SpinPoll, PushJustAfterAPollTickIsSeenAtTheNextTick)
{
    QpipTestbed bed(2);
    sim::EventSource harness = bed.sim().addSource();
    auto &prov = bed.provider(0);
    auto cq = prov.createCq();
    auto &cpu = bed.host(0).cpu();
    auto &os = bed.host(0).os();
    const sim::Tick period = os.cyclesToTicks(prov.costs().pollCqEmpty);
    const sim::Tick t0 = bed.sim().now() + sim::oneUs;
    const sim::Tick at = t0 + 700 * period;
    ASSERT_LE(cpu.busyUntil(), t0);
    const sim::Tick busy0 = cpu.busyTotal();
    sim::Tick seen = 0;
    bed.sim().eventQueue().schedule(
        harness.key(at + 1), [&] { cq->ring().push(Completion{}); });
    bed.sim().eventQueue().schedule(harness.key(t0), [&] {
        spinPoll(prov, *cq, [&](Completion) { seen = bed.sim().now(); });
    });
    bed.sim().runUntil(at + sim::oneMs);
    EXPECT_EQ(seen, at + period);
    EXPECT_EQ(cpu.busyUntil(),
              at + period + os.cyclesToTicks(prov.costs().pollCq));
    EXPECT_EQ(cpu.busyTotal() - busy0,
              701 * period + os.cyclesToTicks(prov.costs().pollCq));
}

TEST(SpinPoll, TimerWorkOnASpinningCpu)
{
    // A kernel timer fires while the CPU spins and queues work with
    // cpu().run. The work's start, the counters it reads, the tick the
    // completion is seen at and the final counters all depend on the
    // polls owed before the timer being charged first.
    QpipTestbed bed(2);
    sim::EventSource harness = bed.sim().addSource();
    auto &prov = bed.provider(0);
    auto cq = prov.createCq();
    auto &cpu = bed.host(0).cpu();
    auto &os = bed.host(0).os();
    const sim::Tick period = os.cyclesToTicks(prov.costs().pollCqEmpty);
    const sim::Tick t0 = bed.sim().now() + sim::oneUs;
    ASSERT_LE(cpu.busyUntil(), t0);
    std::vector<sim::Tick> rec;
    auto note = [&] {
        rec.push_back(bed.sim().now() - t0);
        rec.push_back(cpu.busyTotal());
        rec.push_back(cpu.busyUntil() - t0);
    };
    bed.sim().eventQueue().schedule(harness.key(t0), [&] {
        spinPoll(prov, *cq, [&](Completion) { note(); });
        os.timer(300 * period + period / 3, [&] {
            note();
            cpu.run(1234, [&] { note(); });
            note();
        });
    });
    bed.sim().eventQueue().schedule(
        harness.key(t0 + 900 * period + 17),
        [&] { cq->ring().push(Completion{}); });
    bed.sim().runUntil(t0 + sim::oneMs);
    note();
    // Recorded from the poll-per-event loop: the timer handler, the
    // queued work, the completion and the end of the run each read
    // (now - t0, busyTotal, busyUntil - t0).
    EXPECT_EQ(rec, (std::vector<sim::Tick>{
                       33745482, 33854573, 33854573,   // timer handler
                       33745482, 36098209, 36098209,   // after run()
                       36098209, 36207300, 36207300,   // queued work
                       98280079, 99163715, 99163715,   // completion
                       1000000000, 99163715, 99163715, // run end
                   }));
}

TEST(SpinPoll, OnePartitionEngineMatchesEveryPoll)
{
    // A one-switch star is one partition, whose engine checks the
    // run's predicate after every event as the serial loop does: the
    // run returns at the last reply, where the serial one does, with
    // the serial run's clock, CPU counters, stats less the engine's
    // own parallel.* entries, captures and application result.
    const Pins serial = pingPong(true);
    for (const int threads : {1, 4}) {
        SCOPED_TRACE(threads);
        const Pins p = pingPong(true, threads);
        EXPECT_EQ(p.now, serial.now);
        EXPECT_EQ(p.cpu, serial.cpu);
        EXPECT_EQ(test::withoutEngineStats(p.stats),
                  test::withoutEngineStats(serial.stats));
        EXPECT_EQ(p.pcap, serial.pcap);
        EXPECT_EQ(p.app, serial.app);
        EXPECT_EQ(p.executed, serial.executed);
    }
    expectPins(serial, 8219117744ull,
               {8156959202ull, 8220001380ull, 8139166461ull, 8219148639ull},
               "spin_qpip_tcp_pingpong.json", 11473629942854498038ull,
               13443311829559910404ull);
    EXPECT_EQ(serial.partitions, 1u);
}

TEST(SpinPoll, UnpartitionedRunIsItsEnginesOnePartition)
{
    // What a harness on an unpartitioned testbed relies on. EchoRig's
    // clients read Simulation::now() and post from inside their
    // completion callbacks; the run's events all count on
    // eventQueue(); the predicate is checked before the first event
    // and after every one, so the run returns at the event that
    // decided it; and the stats dump carries no engine entries.
    QpipTestbed bed(2);
    sim::Simulation &sim = bed.sim();
    EchoRig rig(bed, 1, 30, false);
    const std::uint64_t before = sim.eventQueue().executed();
    std::uint64_t checks = 0;
    EXPECT_TRUE(sim.runUntilCondition(
        [&] {
            ++checks;
            return rig.finished();
        },
        sim.now() + sim::oneSec));
    const std::uint64_t events = sim.eventQueue().executed() - before;
    EXPECT_GT(events, 30u);
    EXPECT_EQ(checks, events + 1);
    EXPECT_EQ(sim.eventQueue().executed(), bed.engine()->executed());
    EXPECT_EQ(bed.engine()->numPartitions(), 1u);
    EXPECT_EQ(bed.engine()->epochs(), 0u);
    EXPECT_EQ(sim.stats().jsonDump().find("\"parallel."),
              std::string::npos);
}

TEST(SpinPoll, DualStarEngineReplaysSerialPolls)
{
    // On a dual-star each host is in its own star's partition: the two
    // spinners park and settle in different partitions, on different
    // threads at 4, and every message crosses the trunk as mail. Run
    // on to a fixed tick, a partitioned run leaves what the serial
    // run does.
    constexpr sim::Tick stop = 20 * sim::oneMs;
    const Pins serial = pingPong(true, 0, FabricTopology::DualStar, stop);
    EXPECT_EQ(serial.now, stop);
    for (const int threads : {1, 4}) {
        SCOPED_TRACE(threads);
        const Pins p = pingPong(true, threads, FabricTopology::DualStar,
                                stop);
        EXPECT_EQ(p.partitions, 2u);
        EXPECT_GT(p.mailboxPosts, 0u);
        EXPECT_EQ(p.now, serial.now);
        EXPECT_EQ(p.cpu, serial.cpu);
        EXPECT_EQ(p.pcap, serial.pcap);
        EXPECT_EQ(p.app, serial.app);
        EXPECT_EQ(p.executed, serial.executed);
    }
}
