#include "apps/nbd.hh"

#include <algorithm>
#include <unordered_map>

#include "apps/verbs_util.hh"
#include "net/serialize.hh"
#include "sim/logging.hh"

namespace qpip::apps {

using host::TcpSocket;
using sim::Tick;

namespace {

/** Deterministic device pattern byte for an absolute offset. */
std::uint8_t
patternByte(std::uint64_t off)
{
    return static_cast<std::uint8_t>((off >> 12) * 31 + (off & 0xff));
}

void
fillPattern(std::uint64_t off, std::span<std::uint8_t> out)
{
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = patternByte(off + i);
}

/** True if @p data holds the device pattern from offset @p off. */
bool
matchesPattern(std::uint64_t off, std::span<const std::uint8_t> data)
{
    for (std::size_t i = 0; i < data.size(); ++i) {
        if (data[i] != patternByte(off + i))
            return false;
    }
    return true;
}

} // namespace

// ---------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------

std::vector<std::uint8_t>
serializeNbdRequest(const NbdRequest &req,
                    std::span<const std::uint8_t> payload)
{
    std::vector<std::uint8_t> out;
    out.reserve(nbdRequestHeaderBytes + payload.size());
    net::ByteWriter w(out);
    w.u32(nbdRequestMagic);
    w.u32(static_cast<std::uint32_t>(req.type));
    w.u64(req.handle);
    w.u64(req.offset);
    w.u32(req.length);
    w.bytes(payload);
    return out;
}

bool
parseNbdRequest(std::span<const std::uint8_t> bytes, NbdRequest &out)
{
    if (bytes.size() < nbdRequestHeaderBytes)
        return false;
    net::ByteReader r(bytes);
    if (r.u32() != nbdRequestMagic)
        return false;
    out.type = static_cast<NbdOp>(r.u32());
    out.handle = r.u64();
    out.offset = r.u64();
    out.length = r.u32();
    return r.ok();
}

std::vector<std::uint8_t>
serializeNbdReply(std::uint64_t handle, std::uint32_t error,
                  std::span<const std::uint8_t> payload)
{
    std::vector<std::uint8_t> out;
    out.reserve(nbdReplyHeaderBytes + payload.size());
    net::ByteWriter w(out);
    w.u32(nbdReplyMagic);
    w.u32(error);
    w.u64(handle);
    w.bytes(payload);
    return out;
}

bool
parseNbdReply(std::span<const std::uint8_t> bytes,
              std::uint64_t &handle, std::uint32_t &error)
{
    if (bytes.size() < nbdReplyHeaderBytes)
        return false;
    net::ByteReader r(bytes);
    if (r.u32() != nbdReplyMagic)
        return false;
    error = r.u32();
    handle = r.u64();
    return r.ok();
}

// ---------------------------------------------------------------------
// Sockets server
// ---------------------------------------------------------------------

NbdSocketServer::NbdSocketServer(host::HostStack &stack,
                                 ServerStore &store,
                                 NbdServerConfig config)
    : stack_(stack), store_(store), cfg_(config)
{
    auto cfg = stack_.defaultTcpConfig();
    cfg.noDelay = true;
    stack_.tcpListen(cfg_.port, cfg,
                     [this](std::shared_ptr<TcpSocket> sock) {
                         serve(std::move(sock));
                     });
}

void
NbdSocketServer::serve(std::shared_ptr<TcpSocket> sock)
{
    // The loop holds itself weakly and each pending callback holds it
    // strongly: it lives while a request can still arrive, and no
    // reference cycle outlives the socket.
    auto loop = std::make_shared<std::function<void()>>();
    *loop = [this, sock, weak = std::weak_ptr(loop)] {
        sock->recvExact(
            nbdRequestHeaderBytes,
            [this, sock, loop = weak.lock()](std::vector<std::uint8_t> hdr) {
                NbdRequest req;
                if (!parseNbdRequest(hdr, req))
                    return; // EOF or protocol error: stop serving
                switch (req.type) {
                  case NbdOp::Read:
                    stack_.os().charge(cfg_.serverFsReadCyclesPerPage *
                                       (req.length / 4096 + 1));
                    store_.read(req.offset, req.length, [this, sock,
                                                         loop, req] {
                        std::vector<std::uint8_t> data(req.length);
                        if (cfg_.content != nullptr) {
                            std::copy_n(cfg_.content->begin() +
                                            static_cast<std::ptrdiff_t>(
                                                req.offset),
                                        req.length, data.begin());
                        } else {
                            fillPattern(req.offset, data);
                        }
                        sock->sendAll(
                            serializeNbdReply(req.handle, 0, data),
                            [loop] { (*loop)(); });
                    });
                    break;
                  case NbdOp::Write:
                    sock->recvExact(
                        req.length,
                        [this, sock, loop,
                         req](std::vector<std::uint8_t> data) {
                            if (data.size() < req.length)
                                return; // EOF mid-request
                            stack_.os().charge(
                                cfg_.serverFsWriteCyclesPerPage *
                                (req.length / 4096 + 1));
                            if (cfg_.content != nullptr) {
                                std::copy(
                                    data.begin(), data.end(),
                                    cfg_.content->begin() +
                                        static_cast<std::ptrdiff_t>(
                                            req.offset));
                            }
                            store_.write(
                                req.offset, req.length,
                                [sock, loop, req] {
                                    sock->sendAll(serializeNbdReply(
                                                      req.handle, 0),
                                                  [loop] { (*loop)(); });
                                });
                        });
                    break;
                  case NbdOp::Flush:
                    store_.flush([sock, loop, req] {
                        sock->sendAll(serializeNbdReply(req.handle, 0),
                                      [loop] { (*loop)(); });
                    });
                    break;
                }
            });
    };
    (*loop)();
}

// ---------------------------------------------------------------------
// QPIP server
// ---------------------------------------------------------------------

NbdQpipServer::NbdQpipServer(verbs::Provider &provider,
                             ServerStore &store, NbdServerConfig config)
    : provider_(provider), store_(store), cfg_(config)
{
    cq_ = provider_.createCq(4096);
    const std::size_t req_slot =
        nbdRequestHeaderBytes + cfg_.maxRequestBytes;
    const std::size_t rep_slot =
        nbdReplyHeaderBytes + cfg_.maxRequestBytes;
    reqBuf_ = std::make_shared<std::vector<std::uint8_t>>(req_slot *
                                                          slots_);
    repBuf_ = std::make_shared<std::vector<std::uint8_t>>(rep_slot *
                                                          slots_);
    reqMr_ = provider_.registerMemory(*reqBuf_);
    repMr_ = provider_.registerMemory(*repBuf_);
    acceptor_ = std::make_shared<verbs::Acceptor>(provider_, cfg_.port,
                                                  cq_, cq_);
    armAccept();
}

void
NbdQpipServer::armAccept()
{
    // Serve one client at a time; when a connection mates, park
    // another idle QP for the next mount (the paper's NBD server is
    // single-client too).
    acceptor_->acceptOne([this](std::shared_ptr<verbs::QueuePair> qp) {
        qp_ = std::move(qp);
        const std::size_t slot =
            nbdRequestHeaderBytes + cfg_.maxRequestBytes;
        for (std::size_t i = 0; i < slots_; ++i)
            qp_->postRecv(i, *reqMr_, i * slot, slot);
        pump();
        armAccept();
    });
}

void
NbdQpipServer::pump()
{
    if (pumping_)
        return;
    pumping_ = true;
    cq_->wait([this](verbs::Completion c) {
        pumping_ = false;
        if (!c.isSend && c.status == verbs::WcStatus::Success) {
            const std::size_t slot =
                nbdRequestHeaderBytes + cfg_.maxRequestBytes;
            const std::size_t base = c.wrId * slot;
            std::vector<std::uint8_t> msg(
                reqBuf_->begin() + static_cast<std::ptrdiff_t>(base),
                reqBuf_->begin() +
                    static_cast<std::ptrdiff_t>(base + c.byteLen));
            // Re-arm the slot right away; single-outstanding clients
            // never overrun four slots.
            qp_->postRecv(c.wrId, *reqMr_, base, slot);
            onRequest(qp_, std::move(msg));
        }
        pump();
    });
}

void
NbdQpipServer::onRequest(std::shared_ptr<verbs::QueuePair> qp,
                         std::vector<std::uint8_t> msg)
{
    NbdRequest req;
    if (!parseNbdRequest(msg, req))
        return;
    const std::size_t rep_slot =
        nbdReplyHeaderBytes + cfg_.maxRequestBytes;
    const std::size_t rep_base =
        (req.handle % slots_) * rep_slot;

    auto send_reply = [this, qp, req, rep_base](
                          std::span<const std::uint8_t> payload) {
        auto reply = serializeNbdReply(req.handle, 0, payload);
        std::copy(reply.begin(), reply.end(),
                  repBuf_->begin() +
                      static_cast<std::ptrdiff_t>(rep_base));
        qp->postSend(1000 + (req.handle % slots_), *repMr_, rep_base,
                     reply.size());
    };

    switch (req.type) {
      case NbdOp::Read:
        provider_.host().os().charge(cfg_.serverFsReadCyclesPerPage *
                                     (req.length / 4096 + 1));
        store_.read(req.offset, req.length,
                    [this, req, send_reply] {
                        std::vector<std::uint8_t> data(req.length);
                        if (cfg_.content != nullptr) {
                            std::copy_n(cfg_.content->begin() +
                                            static_cast<std::ptrdiff_t>(
                                                req.offset),
                                        req.length, data.begin());
                        } else {
                            fillPattern(req.offset, data);
                        }
                        send_reply(data);
                    });
        break;
      case NbdOp::Write: {
        provider_.host().os().charge(cfg_.serverFsWriteCyclesPerPage *
                                     (req.length / 4096 + 1));
        auto payload = std::span<const std::uint8_t>(msg).subspan(
            nbdRequestHeaderBytes);
        if (cfg_.content != nullptr && payload.size() == req.length) {
            std::copy(payload.begin(), payload.end(),
                      cfg_.content->begin() +
                          static_cast<std::ptrdiff_t>(req.offset));
        }
        store_.write(req.offset, req.length,
                     [send_reply] { send_reply({}); });
        break;
      }
      case NbdOp::Flush:
        store_.flush([send_reply] { send_reply({}); });
        break;
    }
}

// ---------------------------------------------------------------------
// Client runners
// ---------------------------------------------------------------------

namespace {

/**
 * A sequential client's progress through its device. Both transports
 * keep up to params.pipelineDepth requests in flight, like the kernel
 * driver's request queue. The client is the run's one flow.
 */
struct ClientRun
{
    explicit ClientRun(Testbed &bed) : run(bed, 1) {}

    FlowRun run;
    std::uint64_t nextOffset = 0;
    std::uint64_t completed = 0;
    std::size_t outstanding = 0;
    std::uint64_t handle = 1;
    /** handle -> (offset, length) of each request in flight. */
    std::unordered_map<std::uint64_t,
                       std::pair<std::uint64_t, std::uint32_t>>
        reqs;
    bool dataOk = true;
    /** The client's window: its connect callback to its last reply. */
    HostWindow window;

    /** Put the next request of a @p total_bytes run in flight. */
    NbdRequest
    next(bool is_write, std::size_t request_bytes,
         std::uint64_t total_bytes)
    {
        NbdRequest req;
        req.type = is_write ? NbdOp::Write : NbdOp::Read;
        req.handle = handle++;
        req.offset = nextOffset;
        req.length = static_cast<std::uint32_t>(std::min<std::uint64_t>(
            request_bytes, total_bytes - nextOffset));
        reqs[req.handle] = {req.offset, req.length};
        nextOffset += req.length;
        ++outstanding;
        return req;
    }

    /** The client stops, its window still open: the run failed. */
    void stop(host::Host &client) const
    {
        run.done(0, client.os().curTick());
    }

    /** The client got its last reply. */
    void
    finish(host::Host &client)
    {
        window.close(client);
        stop(client);
    }

    /** Run the client to its stop tick and report it. */
    NbdRunResult
    result(std::uint64_t total_bytes) const
    {
        NbdRunResult r;
        const bool ran = run.run();
        if (window.span() == 0)
            return r;
        r.mbPerSec = mbPerSec(total_bytes, window.span());
        r.clientCpuUtil = window.cpuUtil();
        r.mbPerCpuSec =
            mbPerSec(total_bytes, window.busy1 - window.busy0);
        r.completed = ran;
        r.dataOk = dataOk;
        return r;
    }
};

/** @p req on the wire; a write carries its pattern payload. */
std::vector<std::uint8_t>
requestWire(const NbdRequest &req)
{
    if (req.type != NbdOp::Write)
        return serializeNbdRequest(req);
    std::vector<std::uint8_t> payload(req.length);
    fillPattern(req.offset, payload);
    return serializeNbdRequest(req, payload);
}

} // namespace

NbdRunResult
runNbdSocketsSequential(SocketsTestbed &bed, std::size_t client_idx,
                        std::size_t server_idx, bool is_write,
                        std::uint64_t total_bytes,
                        NbdClientParams params, std::uint16_t port)
{
    auto &client = bed.host(client_idx);
    auto cfg = client.stack().defaultTcpConfig();
    cfg.noDelay = true;

    // The first request and the client's window start from the
    // connect callback.
    auto start = std::make_shared<std::function<void()>>();
    auto sock = client.stack().tcpConnect(
        // A fresh source port per run: old connections may linger.
        bed.addr(client_idx, client.stack().ephemeralPort()),
        bed.addr(server_idx, port), cfg, [start](bool ok) {
            if (ok)
                (*start)();
        });

    struct St : ClientRun
    {
        using ClientRun::ClientRun;
        bool senderActive = false;
    };
    auto st = std::make_shared<St>(bed);

    const sim::Cycles fs_per_req =
        params.fsCyclesPerPage *
        (params.requestBytes / params.fsPageBytes);

    auto sender = std::make_shared<std::function<void()>>();
    auto reader = std::make_shared<std::function<void()>>();
    auto finish_write = std::make_shared<std::function<void()>>();

    *sender = [&client, sock, st, sender, total_bytes, is_write,
               params, fs_per_req] {
        if (st->senderActive || st->run.isDone(0))
            return;
        if (st->nextOffset >= total_bytes ||
            st->outstanding >= params.pipelineDepth) {
            return;
        }
        st->senderActive = true;
        const NbdRequest req =
            st->next(is_write, params.requestBytes, total_bytes);
        // Filesystem / block-layer work above the NBD driver.
        client.os().defer(fs_per_req, [sock, st, sender, req] {
            sock->sendAll(requestWire(req), [st, sender] {
                st->senderActive = false;
                (*sender)();
            });
        });
    };

    *reader = [&client, sock, st, sender, reader, finish_write,
               total_bytes, is_write, params] {
        sock->recvExact(
            nbdReplyHeaderBytes,
            [&client, sock, st, sender, reader, finish_write,
             total_bytes, is_write, params](std::vector<std::uint8_t> h) {
                std::uint64_t handle = 0;
                std::uint32_t err = 0;
                if (!parseNbdReply(h, handle, err) || err != 0) {
                    st->dataOk = st->dataOk && h.empty() == false;
                    st->stop(client);
                    return;
                }
                const auto [req_off, len] = st->reqs[handle];
                st->reqs.erase(handle);
                auto complete = [&client, st, sender, reader,
                                 finish_write, total_bytes,
                                 is_write](std::uint32_t n) {
                    --st->outstanding;
                    st->completed += n;
                    if (st->completed >= total_bytes) {
                        if (is_write)
                            (*finish_write)();
                        else
                            st->finish(client);
                        return;
                    }
                    (*sender)();
                    (*reader)();
                };
                if (is_write) {
                    complete(len);
                } else {
                    sock->recvExact(
                        len,
                        [&client, st, len, req_off, complete,
                         params](std::vector<std::uint8_t> d) {
                            if (d.size() < len) {
                                st->dataOk = false;
                                st->stop(client);
                                return;
                            }
                            if (params.verifyContent &&
                                !matchesPattern(
                                    req_off,
                                    std::span(d).first(len))) {
                                st->dataOk = false;
                            }
                            complete(len);
                        });
                }
            });
    };

    *finish_write = [&client, sock, st] {
        // 'sync': flush the server's dirty buffer to disk.
        NbdRequest req;
        req.type = NbdOp::Flush;
        req.handle = 0xffff;
        sock->sendAll(serializeNbdRequest(req), [] {});
        sock->recvExact(nbdReplyHeaderBytes,
                        [&client, st](std::vector<std::uint8_t>) {
                            st->finish(client);
                        });
    };

    bed.releaseAtTeardown(sender);
    bed.releaseAtTeardown(reader);
    bed.releaseAtTeardown(finish_write);
    *start = [&client, st, sender, reader] {
        st->window.open(client);
        (*sender)();
        (*reader)();
    };

    return st->result(total_bytes);
}

NbdRunResult
runNbdQpipSequential(QpipTestbed &bed, std::size_t client_idx,
                     std::size_t server_idx, bool is_write,
                     std::uint64_t total_bytes, NbdClientParams params,
                     std::uint16_t port)
{
    auto &client = bed.host(client_idx);
    auto &prov = bed.provider(client_idx);

    const std::size_t depth = params.pipelineDepth;
    auto cq = prov.createCq(4096);
    const std::size_t req_slot =
        nbdRequestHeaderBytes + params.requestBytes;
    const std::size_t rep_slot =
        nbdReplyHeaderBytes + params.requestBytes;
    auto req_buf = std::make_shared<std::vector<std::uint8_t>>(
        req_slot * depth);
    auto rep_buf = std::make_shared<std::vector<std::uint8_t>>(
        rep_slot * depth);
    auto req_mr = prov.registerMemory(*req_buf);
    auto rep_mr = prov.registerMemory(*rep_buf);
    auto qp = prov.createQp(nic::QpType::ReliableTcp, cq, cq,
                            depth * 2 + 8, depth + 4);

    struct St : ClientRun
    {
        using ClientRun::ClientRun;
        bool flushing = false;
    };
    auto st = std::make_shared<St>(bed);

    const sim::Cycles fs_per_req =
        params.fsCyclesPerPage *
        (params.requestBytes / params.fsPageBytes);

    // Issue requests into pipeline slots (handle % depth).
    auto issue = std::make_shared<std::function<void()>>();
    *issue = [&client, qp, req_mr, rep_mr, req_buf, st, total_bytes,
              is_write, params, fs_per_req, req_slot, rep_slot,
              depth] {
        while (!st->run.isDone(0) && st->nextOffset < total_bytes &&
               st->outstanding < depth) {
            const NbdRequest req =
                st->next(is_write, params.requestBytes, total_bytes);
            const std::size_t slot = req.handle % depth;
            client.os().defer(
                fs_per_req, [qp, req_mr, rep_mr, req_buf, req, slot,
                             req_slot, rep_slot] {
                    const auto msg = requestWire(req);
                    std::copy(msg.begin(), msg.end(),
                              req_buf->begin() +
                                  static_cast<std::ptrdiff_t>(
                                      slot * req_slot));
                    qp->postRecv(slot, *rep_mr, slot * rep_slot,
                                 rep_slot);
                    qp->postSend(100 + slot, *req_mr,
                                 slot * req_slot, msg.size());
                });
        }
    };

    auto start_flush = [qp, req_mr, rep_mr, req_buf, st, req_slot,
                        rep_slot] {
        st->flushing = true;
        NbdRequest req;
        req.type = NbdOp::Flush;
        req.handle = 0xffff;
        auto msg = serializeNbdRequest(req);
        std::copy(msg.begin(), msg.end(), req_buf->begin());
        qp->postRecv(0, *rep_mr, 0, rep_slot);
        qp->postSend(100, *req_mr, 0, msg.size());
    };

    // Completion pump: the kernel NBD driver blocks on CQ events.
    auto pump = std::make_shared<std::function<void()>>();
    *pump = [&client, cq, rep_buf, st, issue, pump, total_bytes,
             is_write, rep_slot, start_flush, depth, params] {
        cq->wait([&client, cq, rep_buf, st, issue, pump, total_bytes,
                  is_write, rep_slot, start_flush, depth,
                  params](verbs::Completion c) {
            if (!c.isSend && c.status == verbs::WcStatus::Success) {
                if (st->flushing) {
                    st->finish(client);
                    return;
                }
                const std::size_t base =
                    static_cast<std::size_t>(c.wrId) * rep_slot;
                std::uint64_t handle = 0;
                std::uint32_t err = 0;
                std::span<const std::uint8_t> rep(
                    rep_buf->data() + base, c.byteLen);
                if (!parseNbdReply(rep, handle, err) || err != 0) {
                    st->dataOk = false;
                } else if (auto it = st->reqs.find(handle);
                           it != st->reqs.end()) {
                    const auto [req_off, len] = it->second;
                    st->reqs.erase(it);
                    st->completed += len;
                    if (!is_write && params.verifyContent) {
                        const auto data =
                            rep.subspan(nbdReplyHeaderBytes);
                        if (data.size() < len ||
                            !matchesPattern(req_off, data.first(len)))
                            st->dataOk = false;
                    }
                }
                --st->outstanding;
                (*issue)();
                if (st->completed >= total_bytes &&
                    st->outstanding == 0) {
                    if (is_write) {
                        start_flush();
                    } else {
                        st->finish(client);
                        return;
                    }
                }
            }
            if (!st->run.isDone(0))
                (*pump)();
        });
    };

    bed.releaseAtTeardown(pump);
    // The first request and the client's window start from the
    // connect callback.
    qp->connect(bed.addr(server_idx, port),
                [&client, st, issue, pump](bool ok) {
                    if (!ok)
                        return;
                    st->window.open(client);
                    (*issue)();
                    (*pump)();
                });

    return st->result(total_bytes);
}

} // namespace qpip::apps
