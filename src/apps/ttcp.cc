#include "apps/ttcp.hh"

#include "apps/verbs_util.hh"
#include "sim/logging.hh"

namespace qpip::apps {

using host::TcpSocket;
using sim::Tick;

namespace {

constexpr std::uint16_t ttcpPort = 5001;

/**
 * One transfer's result from its two ends' windows: the rate runs
 * from the sender's start to the receiver's last byte, and each CPU
 * figure is its own host's busy fraction over its own window, as
 * ttcp's transmitter and receiver each report.
 */
TtcpResult
ttcpResult(const HostWindow &tx, const HostWindow &rx,
           std::size_t total_bytes, bool completed)
{
    TtcpResult r;
    const Tick wall = rx.t1 > tx.t0 ? rx.t1 - tx.t0 : 0;
    if (wall == 0)
        return r;
    r.mbPerSec = mbPerSec(total_bytes, wall);
    r.txCpuUtil = tx.cpuUtil();
    r.rxCpuUtil = rx.cpuUtil();
    r.elapsedMs = sim::ticksToSec(wall) * 1e3;
    r.completed = completed;
    return r;
}

/**
 * What one pair of a sockets run measured. The sender's window runs
 * from its connect callback to its last write returning, the
 * receiver's from its accept to its last byte. Each field is written
 * only by its own host's partition.
 */
struct PairRecord
{
    HostWindow tx;
    std::size_t sent = 0;
    HostWindow rx;
    std::size_t received = 0;
};

/**
 * Run a bulk TCP transfer for every pair in @p pairs at once (pair k
 * listens on port 5001+k and connects from port 30000+k, and is flow
 * k of @p run); each sender starts from its own connect callback, and
 * a pair is done at its receiver's last byte.
 * @return each pair's record, read at the run's stop tick.
 */
std::vector<PairRecord>
runPairs(SocketsTestbed &bed, const FlowRun &run,
         const std::vector<TtcpPair> &pairs, std::size_t bytes_per_pair,
         std::size_t chunk_bytes)
{
    auto cfg = bed.tcpConfig();
    cfg.noDelay = true; // ttcp -D

    // Per-pair slots rather than a shared counter, which different
    // worker threads would increment concurrently.
    auto rec = std::make_shared<std::vector<PairRecord>>(pairs.size());

    // Listeners first: pair k on port 5001+k.
    for (std::size_t k = 0; k < pairs.size(); ++k) {
        auto drain = std::make_shared<
            std::function<void(std::shared_ptr<TcpSocket>)>>();
        host::Host &dst = bed.host(pairs[k].dst);
        *drain = [rec, run, k, bytes_per_pair, &dst,
                  drain](std::shared_ptr<TcpSocket> sock) {
            sock->recv(262144, [rec, run, k, bytes_per_pair, &dst, drain,
                                sock](std::vector<std::uint8_t> d) {
                if (d.empty())
                    return; // EOF
                PairRecord &p = (*rec)[k];
                p.received += d.size();
                if (p.received >= bytes_per_pair) {
                    p.rx.close(dst);
                    run.done(k, p.rx.t1);
                    return;
                }
                (*drain)(sock);
            });
        };
        bed.releaseAtTeardown(drain);
        dst.stack().tcpListen(
            static_cast<std::uint16_t>(ttcpPort + k), cfg,
            [drain, rec, k, &dst](std::shared_ptr<TcpSocket> sock) {
                (*rec)[k].rx.open(dst);
                (*drain)(sock);
            });
    }

    // Connect every sender (source port 30000+k keeps 4-tuples unique
    // even when one host runs several pairs). Each starts sending from
    // its own connect callback, so when it starts is part of the
    // simulation, not of where a run call returned.
    for (std::size_t k = 0; k < pairs.size(); ++k) {
        host::Host &src = bed.host(pairs[k].src);
        auto sock = std::make_shared<std::shared_ptr<TcpSocket>>();
        auto pump = std::make_shared<std::function<void()>>();
        *pump = [sock, rec, k, &src, bytes_per_pair, chunk_bytes, pump] {
            PairRecord &p = (*rec)[k];
            if (p.sent >= bytes_per_pair) {
                p.tx.close(src);
                return;
            }
            const std::size_t n =
                std::min(chunk_bytes, bytes_per_pair - p.sent);
            p.sent += n;
            (*sock)->sendAll(std::vector<std::uint8_t>(n, 0xcd),
                             [pump] { (*pump)(); });
        };
        bed.releaseAtTeardown(pump);
        *sock = src.stack().tcpConnect(
            bed.addr(pairs[k].src,
                     static_cast<std::uint16_t>(30000 + k)),
            bed.addr(pairs[k].dst,
                     static_cast<std::uint16_t>(ttcpPort + k)),
            cfg, [rec, k, &src, pump](bool connected) {
                if (!connected)
                    return;
                (*rec)[k].tx.open(src);
                (*pump)();
            });
    }

    run.run();
    return *rec;
}

} // namespace

TtcpResult
runSocketsTtcp(SocketsTestbed &bed, std::size_t total_bytes,
               std::size_t chunk_bytes)
{
    const FlowRun run(bed, 1);
    const auto rec =
        runPairs(bed, run, {TtcpPair{0, 1}}, total_bytes, chunk_bytes);
    return ttcpResult(rec[0].tx, rec[0].rx, total_bytes, run.isDone(0));
}

TtcpResult
runQpipTtcp(QpipTestbed &bed, std::size_t total_bytes,
            std::size_t chunk_bytes, std::size_t pipeline_depth,
            sim::Tick poll_interval)
{
    auto &prov_tx = bed.provider(0);
    auto &prov_rx = bed.provider(1);
    host::Host &host_tx = bed.host(0);
    host::Host &host_rx = bed.host(1);

    const std::size_t n_msgs =
        (total_bytes + chunk_bytes - 1) / chunk_bytes;

    // Each end's fields are written only from its own host's
    // callbacks.
    struct St
    {
        HostWindow tx;
        std::size_t posted = 0;
        std::size_t sendsDone = 0;
        HostWindow rx;
        std::size_t received = 0;
    };
    auto st = std::make_shared<St>();
    // One flow, done at the receiver's last byte.
    const FlowRun run(bed, 1);

    // --- receiver ------------------------------------------------------
    auto cq_rx = prov_rx.createCq(8192);
    auto buf_rx = std::make_shared<std::vector<std::uint8_t>>(
        chunk_bytes * pipeline_depth);
    auto mr_rx = prov_rx.registerMemory(*buf_rx);
    auto acceptor = std::make_shared<verbs::Acceptor>(
        prov_rx, ttcpPort, cq_rx, cq_rx);

    acceptor->acceptOne([&, st, run, mr_rx,
                         buf_rx](std::shared_ptr<verbs::QueuePair> qp) {
        st->rx.open(host_rx);
        // Pre-post the whole pipeline of receive buffers.
        for (std::size_t i = 0; i < pipeline_depth; ++i)
            qp->postRecv(i, *mr_rx, i * chunk_bytes, chunk_bytes);
        // Periodic reaper: drain completions, repost, count bytes. It
        // holds the QP until teardown: destroying the QP flushes the
        // receives still posted into cq_rx, which must outlive them.
        auto reap = std::make_shared<std::function<bool()>>(
            [&host_rx, qp, cq_rx, st, run, mr_rx, pipeline_depth,
             chunk_bytes, total_bytes]() -> bool {
                verbs::Completion c;
                while (cq_rx->poll(c)) {
                    if (c.isSend)
                        continue;
                    st->received += c.byteLen;
                    qp->postRecv(c.wrId, *mr_rx,
                                 (c.wrId % pipeline_depth) * chunk_bytes,
                                 chunk_bytes);
                }
                if (st->received < total_bytes)
                    return true;
                st->rx.close(host_rx);
                run.done(0, st->rx.t1);
                return false;
            });
        bed.releaseAtTeardown(reap);
        periodicReaper(prov_rx, poll_interval,
                       [reap] { return (*reap)(); });
    });

    // --- sender --------------------------------------------------------
    auto cq_tx = prov_tx.createCq(8192);
    auto buf_tx =
        std::make_shared<std::vector<std::uint8_t>>(chunk_bytes, 0xcd);
    auto mr_tx = prov_tx.registerMemory(*buf_tx);
    auto qp_tx = prov_tx.createQp(nic::QpType::ReliableTcp, cq_tx,
                                  cq_tx, pipeline_depth + 8, 8);

    // Fill the pipeline, then keep it full from the reaper.
    auto top_up = [qp_tx, mr_tx, st, n_msgs, pipeline_depth,
                   chunk_bytes, total_bytes] {
        while (st->posted < n_msgs &&
               st->posted - st->sendsDone < pipeline_depth) {
            const std::size_t remaining =
                total_bytes - st->posted * chunk_bytes;
            const std::size_t len = std::min(chunk_bytes, remaining);
            if (!qp_tx->postSend(st->posted, *mr_tx, 0, len))
                break;
            ++st->posted;
        }
    };
    // The sender's window closes when its reaper sees the last send
    // complete. The reaper holds the QP until teardown, so where a run
    // call returns never decides when the connection goes.
    auto reap = std::make_shared<std::function<bool()>>(
        [&host_tx, cq_tx, st, top_up, n_msgs]() -> bool {
            verbs::Completion c;
            while (cq_tx->poll(c)) {
                if (c.isSend)
                    ++st->sendsDone;
            }
            top_up();
            if (st->sendsDone < n_msgs)
                return true;
            st->tx.close(host_tx);
            return false;
        });
    bed.releaseAtTeardown(reap);
    // The transfer and the sender's window start from the connect
    // callback.
    qp_tx->connect(bed.addr(1, ttcpPort), [&prov_tx, &host_tx, st, top_up,
                                           reap, poll_interval](bool ok) {
        if (!ok)
            return;
        st->tx.open(host_tx);
        top_up();
        periodicReaper(prov_tx, poll_interval,
                       [reap] { return (*reap)(); });
    });

    const bool ok = run.run();
    return ttcpResult(st->tx, st->rx, total_bytes, ok);
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
    MultiTtcpResult r;
    const FlowRun run(bed, pairs.size());
    const auto rec =
        runPairs(bed, run, pairs, bytes_per_pair, chunk_bytes);
    // The window runs from the first pair's start to the last pair's
    // completion, both simulated ticks.
    Tick t0 = sim::maxTick;
    Tick t1 = 0;
    for (std::size_t k = 0; k < pairs.size(); ++k) {
        if (!run.isDone(k))
            continue;
        const PairRecord &p = rec[k];
        ++r.pairsCompleted;
        t0 = std::min(t0, p.tx.t0);
        t1 = std::max(t1, p.rx.t1);
    }
    if (t1 > t0) {
        r.elapsedTicks = t1 - t0;
        r.aggMbPerSec =
            mbPerSec(r.pairsCompleted * bytes_per_pair, r.elapsedTicks);
    }
    r.completed = r.pairsCompleted == pairs.size();
    return r;
}

} // namespace qpip::apps
