/**
 * @file
 * The host-memory structures shared between the verbs library and the
 * QPIP NIC: work requests, work queues, completion queues and the
 * registered-memory table. In hardware these live in pinned host
 * memory and the NIC reads/writes them with DMA; in the simulation
 * they are ordinary objects, and the DMA *time* is charged by the
 * NIC's Get WR / Put Data / Update stages.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "host/cpu.hh"
#include "inet/inet_addr.hh"
#include "sim/logging.hh"
#include "sim/ring_fifo.hh"
#include "sim/types.hh"

namespace qpip::nic {

using QpNum = std::uint32_t;
using MrKey = std::uint32_t;
using SrqNum = std::uint32_t;
using CqNum = std::uint32_t;

constexpr QpNum invalidQp = 0;
constexpr SrqNum invalidSrq = 0;
constexpr CqNum invalidCq = 0;

/** QP service type. */
enum class QpType : std::uint8_t {
    ReliableTcp,   ///< connected, message-per-TCP-segment
    UnreliableUdp, ///< datagram, message-per-UDP-datagram
    /**
     * Reliable delivery over UDP datagrams: per-peer sequence
     * numbers, cumulative acks and retransmission run in a thin
     * firmware shim whose per-peer state lives in host memory, so one
     * QP context serves any number of peers without growing the NIC's
     * cached QP state.
     */
    ReliableDatagram,
};

/** Completion status codes. */
enum class WcStatus : std::uint8_t {
    Success,
    LengthError,  ///< message larger than the posted receive buffer
    Flushed,      ///< QP torn down with the WR outstanding
    RemoteReset,  ///< connection reset under the WR
    RemoteAccessError, ///< one-sided op refused: rkey/bounds/rights
};

const char *wcStatusName(WcStatus s);

/** Work-request operation (send queue). */
enum class WrOpcode : std::uint8_t {
    Send,      ///< two-sided, consumes a remote receive WR
    RdmaWrite, ///< one-sided write into a remote MR
    RdmaRead,  ///< one-sided read from a remote MR
};

/**
 * Memory-registration access rights, a bitmask. Local access is
 * always granted; remote rights are opt-in at registration time, and
 * one-sided ops against a region lacking them complete in
 * WcStatus::RemoteAccessError on the requester.
 */
using MrAccess = std::uint8_t;
constexpr MrAccess accessLocal = 0x1;
constexpr MrAccess accessRemoteRead = 0x2;
constexpr MrAccess accessRemoteWrite = 0x4;
constexpr MrAccess accessRemoteRw =
    accessRemoteRead | accessRemoteWrite;

/** One scatter/gather element into registered memory. */
struct Sge
{
    MrKey key = 0;
    std::size_t offset = 0;
    std::size_t length = 0;
};

/** A send work request. */
struct SendWr
{
    std::uint64_t id = 0;
    WrOpcode opcode = WrOpcode::Send;
    Sge sge;
    /** Destination for UD QPs (ignored on connected QPs). */
    inet::SockAddr remote;
    /** One-sided ops: byte offset into the remote MR. */
    std::uint64_t raddr = 0;
    /** One-sided ops: the remote MR's key. */
    MrKey rkey = 0;
};

/** A receive work request. */
struct RecvWr
{
    std::uint64_t id = 0;
    Sge sge;
};

/** A completion queue entry. */
struct Completion
{
    std::uint64_t wrId = 0;
    QpNum qp = invalidQp;
    bool isSend = false;
    WrOpcode opcode = WrOpcode::Send;
    WcStatus status = WcStatus::Success;
    std::size_t byteLen = 0;
    /** Source of a UD receive. */
    inet::SockAddr from;
    sim::Tick completedAt = 0;
};

/**
 * The host-memory work queues of one QP.
 */
struct QpHostRings
{
    sim::RingFifo<SendWr> sendQ;
    sim::RingFifo<RecvWr> recvQ;
};

/**
 * The host-memory ring of a shared receive queue: receive WRs that
 * any attached QP may consume, in post order.
 */
struct SrqHostRing
{
    sim::RingFifo<RecvWr> recvQ;
};

/**
 * A completion queue ring in host memory. The NIC pushes entries
 * (paying DMA in its Update stages), fires the notify hook when the
 * consumer has armed it, and wakes a spin loop parked on the ring.
 */
class CqRing
{
  public:
    explicit CqRing(std::size_t capacity = 4096) : capacity_(capacity) {}

    /**
     * Append a completion. With @p defer_notify the armed notify
     * hook is NOT fired — the producer moderates notifications
     * itself and delivers them via notifyNow() (after N CQEs or a
     * timeout). The default is the legacy immediate upcall.
     */
    bool
    push(const Completion &c, bool defer_notify = false)
    {
        if (entries_.size() >= capacity_)
            return false; // CQ overflow: completion lost
        entries_.push_back(c);
        spinner_.wake();
        if (!defer_notify && armed_ && notify_) {
            armed_ = false;
            notify_();
        }
        return true;
    }

    /**
     * Fire the armed notify hook now (the moderated-notification
     * delivery point). No-op when not armed or empty.
     */
    void
    notifyNow()
    {
        if (armed_ && notify_ && !entries_.empty()) {
            armed_ = false;
            notify_();
        }
    }

    bool
    pop(Completion &out)
    {
        if (entries_.empty())
            return false;
        out = entries_.front();
        entries_.pop_front();
        return true;
    }

    std::size_t depth() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }

    /** Request a notify() upcall on the next push. */
    void
    arm(std::function<void()> notify)
    {
        notify_ = std::move(notify);
        armed_ = true;
    }

    /**
     * Cancel the notify() request and drop the hook. The hook may hold
     * the last reference to this ring's owner, so it is taken out
     * first and nothing is touched after it goes.
     */
    void
    disarm()
    {
        armed_ = false;
        const auto hook = std::move(notify_);
        notify_ = nullptr;
    }
    bool armed() const { return armed_; }

    /** Where a spin loop on this ring parks (host::CpuModel::park). */
    host::SpinWaiter &spinner() { return spinner_; }

  private:
    host::SpinWaiter spinner_;
    std::size_t capacity_;
    sim::RingFifo<Completion> entries_;
    bool armed_ = false;
    std::function<void()> notify_;
};

/**
 * Registered-memory table: the NIC-side shadow of the verbs layer's
 * memory registrations (the paper's "registered memory bindings" and
 * virtual-to-physical translation facility).
 */
class MrTable
{
  public:
    /**
     * Register @p bytes of memory at @p base under a fresh key with
     * the given access rights (local access is always implied).
     */
    MrKey
    registerMemory(std::uint8_t *base, std::size_t bytes,
                   MrAccess access = accessLocal)
    {
        const MrKey key = nextKey_++;
        table_[key] = Region{base, bytes,
                             static_cast<MrAccess>(access | accessLocal)};
        return key;
    }

    void deregister(MrKey key) { table_.erase(key); }

    /**
     * Resolve an SGE to a host pointer, validating bounds and access
     * rights. @return nullptr if the key is unknown, the range is out
     * of bounds, or the region lacks any bit of @p required — the NIC
     * completes such WRs in error.
     */
    std::uint8_t *
    resolve(const Sge &sge, MrAccess required = accessLocal) const
    {
        auto it = table_.find(sge.key);
        if (it == table_.end())
            return nullptr;
        if ((it->second.access & required) != required)
            return nullptr;
        // Written so that no sum can wrap: the responder takes
        // sge.offset from the wire's 64-bit raddr.
        if (sge.length > it->second.bytes ||
            sge.offset > it->second.bytes - sge.length)
            return nullptr;
        return it->second.base + sge.offset;
    }

    std::size_t size() const { return table_.size(); }

  private:
    struct Region
    {
        std::uint8_t *base = nullptr;
        std::size_t bytes = 0;
        MrAccess access = accessLocal;
    };

    /** Ordered by key so any future scan is replay-deterministic. */
    std::map<MrKey, Region> table_;
    MrKey nextKey_ = 1;
};

} // namespace qpip::nic
