#include "apps/ttcp.hh"

#include "apps/verbs_util.hh"
#include "sim/logging.hh"

namespace qpip::apps {

using host::TcpSocket;
using sim::Tick;

namespace {

constexpr std::uint16_t ttcpPort = 5001;
constexpr Tick runDeadline = 600 * sim::oneSec;

struct Window
{
    Tick t0 = 0;
    Tick busyTx0 = 0;
    Tick busyRx0 = 0;
};

TtcpResult
finish(const Window &w, sim::Tick t_end, Tick busy_tx, Tick busy_rx,
       std::size_t total_bytes, bool completed)
{
    TtcpResult r;
    const Tick wall = t_end - w.t0;
    if (wall == 0)
        return r;
    r.mbPerSec = static_cast<double>(total_bytes) /
                 (1024.0 * 1024.0) / sim::ticksToSec(wall);
    r.txCpuUtil =
        host::CpuModel::utilization(busy_tx - w.busyTx0, wall);
    r.rxCpuUtil =
        host::CpuModel::utilization(busy_rx - w.busyRx0, wall);
    r.elapsedMs = sim::ticksToSec(wall) * 1e3;
    r.completed = completed;
    return r;
}

} // namespace

TtcpResult
runSocketsTtcp(SocketsTestbed &bed, std::size_t total_bytes,
               std::size_t chunk_bytes)
{
    auto &sim = bed.sim();
    auto cfg = bed.tcpConfig();
    cfg.noDelay = true; // ttcp -D

    auto received = std::make_shared<std::size_t>(0);
    auto done = std::make_shared<bool>(false);
    auto t_end = std::make_shared<Tick>(0);

    // Receiver: drain until the expected byte count arrives.
    auto drain = std::make_shared<
        std::function<void(std::shared_ptr<TcpSocket>)>>();
    host::HostOS &os = bed.host(1).os();
    *drain = [received, done, t_end, total_bytes, &os,
              drain](std::shared_ptr<TcpSocket> sock) {
        sock->recv(262144, [received, done, t_end, total_bytes, &os,
                            drain, sock](std::vector<std::uint8_t> d) {
            if (d.empty())
                return; // EOF
            *received += d.size();
            if (*received >= total_bytes) {
                *t_end = os.curTick();
                *done = true;
                return;
            }
            (*drain)(sock);
        });
    };
    bed.releaseAtTeardown(drain);
    bed.host(1).stack().tcpListen(
        ttcpPort, cfg,
        [drain](std::shared_ptr<TcpSocket> sock) { (*drain)(sock); });

    // Sender.
    auto window = std::make_shared<Window>();
    auto sock = bed.host(0).stack().tcpConnect(
        bed.addr(0, 30002), bed.addr(1, ttcpPort), cfg, nullptr);

    sim.runUntilCondition([&] { return sock->connected(); },
                          sim.now() + runDeadline);
    window->t0 = sim.now();
    window->busyTx0 = bed.host(0).cpu().busyTotal();
    window->busyRx0 = bed.host(1).cpu().busyTotal();

    auto sent = std::make_shared<std::size_t>(0);
    auto pump = std::make_shared<std::function<void()>>();
    *pump = [sock, sent, total_bytes, chunk_bytes, pump] {
        if (*sent >= total_bytes)
            return;
        const std::size_t n =
            std::min(chunk_bytes, total_bytes - *sent);
        *sent += n;
        sock->sendAll(std::vector<std::uint8_t>(n, 0xcd),
                      [pump] { (*pump)(); });
    };
    bed.releaseAtTeardown(pump);
    (*pump)();

    const bool ok = sim.runUntilCondition([&] { return *done; },
                                          sim.now() + runDeadline);
    return finish(*window, *t_end, bed.host(0).cpu().busyTotal(),
                  bed.host(1).cpu().busyTotal(), total_bytes, ok);
}

TtcpResult
runQpipTtcp(QpipTestbed &bed, std::size_t total_bytes,
            std::size_t chunk_bytes, std::size_t pipeline_depth,
            sim::Tick poll_interval)
{
    auto &sim = bed.sim();
    auto &prov_tx = bed.provider(0);
    auto &prov_rx = bed.provider(1);

    const std::size_t n_msgs =
        (total_bytes + chunk_bytes - 1) / chunk_bytes;

    // --- receiver ------------------------------------------------------
    auto cq_rx = prov_rx.createCq(8192);
    auto buf_rx = std::make_shared<std::vector<std::uint8_t>>(
        chunk_bytes * pipeline_depth);
    auto mr_rx = prov_rx.registerMemory(*buf_rx);
    auto acceptor = std::make_shared<verbs::Acceptor>(
        prov_rx, ttcpPort, cq_rx, cq_rx);

    auto received = std::make_shared<std::size_t>(0);
    auto done = std::make_shared<bool>(false);
    auto t_end = std::make_shared<Tick>(0);
    auto qp_rx_keep =
        std::make_shared<std::shared_ptr<verbs::QueuePair>>();

    host::HostOS &os_rx = bed.host(1).os();
    acceptor->acceptOne([&, received, done, t_end, qp_rx_keep, mr_rx,
                         buf_rx](std::shared_ptr<verbs::QueuePair> qp) {
        *qp_rx_keep = qp;
        // Pre-post the whole pipeline of receive buffers.
        for (std::size_t i = 0; i < pipeline_depth; ++i)
            qp->postRecv(i, *mr_rx, i * chunk_bytes, chunk_bytes);
        // Periodic reaper: drain completions, repost, count bytes.
        periodicReaper(
            prov_rx, poll_interval,
            [&os_rx, qp, cq_rx, received, done, t_end, mr_rx,
             pipeline_depth, chunk_bytes, total_bytes]() -> bool {
                verbs::Completion c;
                while (cq_rx->poll(c)) {
                    if (c.isSend)
                        continue;
                    *received += c.byteLen;
                    qp->postRecv(c.wrId, *mr_rx,
                                 (c.wrId % pipeline_depth) * chunk_bytes,
                                 chunk_bytes);
                }
                if (*received >= total_bytes) {
                    *t_end = os_rx.curTick();
                    *done = true;
                    return false;
                }
                return true;
            });
    });

    // --- sender --------------------------------------------------------
    auto cq_tx = prov_tx.createCq(8192);
    auto buf_tx =
        std::make_shared<std::vector<std::uint8_t>>(chunk_bytes, 0xcd);
    auto mr_tx = prov_tx.registerMemory(*buf_tx);
    auto qp_tx = prov_tx.createQp(nic::QpType::ReliableTcp, cq_tx,
                                  cq_tx, pipeline_depth + 8, 8);

    auto window = std::make_shared<Window>();
    auto posted = std::make_shared<std::size_t>(0);
    auto completed_sends = std::make_shared<std::size_t>(0);
    auto connected = std::make_shared<bool>(false);

    qp_tx->connect(bed.addr(1, ttcpPort),
                   [connected](bool ok) { *connected = ok; });
    sim.runUntilCondition([&] { return *connected; },
                          sim.now() + runDeadline);

    window->t0 = sim.now();
    window->busyTx0 = bed.host(0).cpu().busyTotal();
    window->busyRx0 = bed.host(1).cpu().busyTotal();

    // Fill the pipeline, then keep it full from the reaper.
    auto top_up = [qp_tx, mr_tx, posted, completed_sends, n_msgs,
                   pipeline_depth, chunk_bytes, total_bytes] {
        while (*posted < n_msgs &&
               *posted - *completed_sends < pipeline_depth) {
            const std::size_t remaining =
                total_bytes - *posted * chunk_bytes;
            const std::size_t len = std::min(chunk_bytes, remaining);
            if (!qp_tx->postSend(*posted, *mr_tx, 0, len))
                break;
            ++*posted;
        }
    };
    top_up();
    periodicReaper(prov_tx, poll_interval,
                   [cq_tx, completed_sends, top_up, n_msgs]() -> bool {
                       verbs::Completion c;
                       while (cq_tx->poll(c)) {
                           if (c.isSend)
                               ++*completed_sends;
                       }
                       top_up();
                       return *completed_sends < n_msgs;
                   });

    const bool ok = sim.runUntilCondition([&] { return *done; },
                                          sim.now() + runDeadline);
    return finish(*window, *t_end, bed.host(0).cpu().busyTotal(),
                  bed.host(1).cpu().busyTotal(), total_bytes, ok);
}

std::vector<TtcpPair>
allPairs(std::size_t n_hosts)
{
    std::vector<TtcpPair> pairs;
    for (std::size_t i = 0; i < n_hosts; ++i) {
        for (std::size_t j = 0; j < n_hosts; ++j) {
            if (i != j)
                pairs.push_back(TtcpPair{i, j});
        }
    }
    return pairs;
}

std::vector<TtcpPair>
uniformShiftPairs(std::size_t n_hosts, std::size_t n_shifts)
{
    if (n_shifts >= n_hosts)
        sim::panic("uniformShiftPairs: n_shifts %zu must be below "
                   "n_hosts %zu",
                   n_shifts, n_hosts);
    std::vector<TtcpPair> pairs;
    pairs.reserve(n_hosts * n_shifts);
    for (std::size_t s = 1; s <= n_shifts; ++s) {
        for (std::size_t i = 0; i < n_hosts; ++i)
            pairs.push_back(TtcpPair{i, (i + s) % n_hosts});
    }
    return pairs;
}

std::vector<TtcpPair>
incastPairs(std::size_t n_hosts, std::size_t dst)
{
    if (dst >= n_hosts)
        sim::panic("incastPairs: dst %zu out of range (n_hosts %zu)",
                   dst, n_hosts);
    std::vector<TtcpPair> pairs;
    pairs.reserve(n_hosts - 1);
    for (std::size_t i = 0; i < n_hosts; ++i) {
        if (i != dst)
            pairs.push_back(TtcpPair{i, dst});
    }
    return pairs;
}

MultiTtcpResult
runSocketsTtcpPairs(SocketsTestbed &bed,
                    const std::vector<TtcpPair> &pairs,
                    std::size_t bytes_per_pair,
                    std::size_t chunk_bytes)
{
    auto &sim = bed.sim();
    auto cfg = bed.tcpConfig();
    cfg.noDelay = true;

    // Per pair: the tick its sender starts, the tick its receiver has
    // every byte, and a done flag. Each slot is written only by one
    // host's partition: a shared counter here would be incremented
    // concurrently from different worker threads. The completion
    // predicate sums the flags, and only runs at epoch barriers.
    auto start = std::make_shared<std::vector<Tick>>(pairs.size(),
                                                     sim::maxTick);
    auto end = std::make_shared<std::vector<Tick>>(pairs.size(), 0);
    auto done = std::make_shared<std::vector<std::uint8_t>>(
        pairs.size(), std::uint8_t{0});
    const auto done_count = [done] {
        std::size_t n = 0;
        for (const std::uint8_t f : *done)
            n += f;
        return n;
    };

    // Listeners first: pair k on port 5001+k.
    for (std::size_t k = 0; k < pairs.size(); ++k) {
        auto drain = std::make_shared<
            std::function<void(std::shared_ptr<TcpSocket>)>>();
        auto received = std::make_shared<std::size_t>(0);
        host::HostOS &os = bed.host(pairs[k].dst).os();
        *drain = [received, end, done, k, bytes_per_pair, &os,
                  drain](std::shared_ptr<TcpSocket> sock) {
            sock->recv(262144, [received, end, done, k, bytes_per_pair,
                                &os, drain,
                                sock](std::vector<std::uint8_t> d) {
                if (d.empty())
                    return; // EOF
                *received += d.size();
                if (*received >= bytes_per_pair) {
                    (*end)[k] = os.curTick();
                    (*done)[k] = 1;
                    return;
                }
                (*drain)(sock);
            });
        };
        bed.releaseAtTeardown(drain);
        bed.host(pairs[k].dst)
            .stack()
            .tcpListen(static_cast<std::uint16_t>(ttcpPort + k), cfg,
                       [drain](std::shared_ptr<TcpSocket> sock) {
                           (*drain)(sock);
                       });
    }

    // Connect every sender (source port 30000+k keeps 4-tuples unique
    // even when one host runs several pairs). Each starts sending from
    // its own connect callback, so when it starts is part of the
    // simulation, not of where a run call returned.
    for (std::size_t k = 0; k < pairs.size(); ++k) {
        auto sock = std::make_shared<std::shared_ptr<TcpSocket>>();
        auto sent = std::make_shared<std::size_t>(0);
        auto pump = std::make_shared<std::function<void()>>();
        *pump = [sock, sent, bytes_per_pair, chunk_bytes, pump] {
            if (*sent >= bytes_per_pair)
                return;
            const std::size_t n =
                std::min(chunk_bytes, bytes_per_pair - *sent);
            *sent += n;
            (*sock)->sendAll(std::vector<std::uint8_t>(n, 0xcd),
                             [pump] { (*pump)(); });
        };
        bed.releaseAtTeardown(pump);
        host::Host &src = bed.host(pairs[k].src);
        host::HostOS &os = src.os();
        *sock = src.stack().tcpConnect(
            bed.addr(pairs[k].src,
                     static_cast<std::uint16_t>(30000 + k)),
            bed.addr(pairs[k].dst,
                     static_cast<std::uint16_t>(ttcpPort + k)),
            cfg, [start, k, &os, pump](bool ok) {
                if (!ok)
                    return;
                (*start)[k] = os.curTick();
                (*pump)();
            });
    }

    const bool ok = sim.runUntilCondition(
        [&] { return done_count() >= pairs.size(); },
        sim.now() + runDeadline);

    MultiTtcpResult r;
    r.pairsCompleted = done_count();
    r.completed = ok;
    // The window runs from the first pair's start to the last pair's
    // completion, both simulated ticks.
    Tick t0 = sim::maxTick;
    Tick t1 = 0;
    for (std::size_t k = 0; k < pairs.size(); ++k) {
        if ((*done)[k] == 0)
            continue;
        t0 = std::min(t0, (*start)[k]);
        t1 = std::max(t1, (*end)[k]);
    }
    if (t1 > t0) {
        r.elapsedTicks = t1 - t0;
        r.elapsedMs = sim::ticksToSec(r.elapsedTicks) * 1e3;
        r.aggMbPerSec = static_cast<double>(r.pairsCompleted) *
                        static_cast<double>(bytes_per_pair) /
                        (1024.0 * 1024.0) /
                        sim::ticksToSec(r.elapsedTicks);
    }
    return r;
}

} // namespace qpip::apps
