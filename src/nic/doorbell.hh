/**
 * @file
 * The doorbell path: user-space posts write a record into a region of
 * PCI address space that the LANai hardware latches into an SRAM FIFO
 * (the "specialized doorbell mechanism" of the prototype's DMA
 * controller). The doorbell FSM drains the FIFO and updates the QP
 * state table with outstanding-WR counts.
 *
 * Two batching mechanisms ride on top of the plain FIFO, both off by
 * default so the paper's per-post discipline is preserved exactly:
 *
 *  - chained posts (verbs postSendList/postRecvList) announce a whole
 *    run of WRs in one record (wrCount > 1) — one PCI posted write
 *    and one doorbell-FSM pass for the entire chain;
 *  - the coalescing window (coalesceWindow ticks, driven by
 *    QpipNicParams::doorbellCoalesceCycles) folds a ring addressed to
 *    a queue that already has an undrained record younger than the
 *    window into that record instead of occupying a new FIFO slot.
 *
 * The FIFO holds its records in a sim::RingFifo bounded at the
 * hardware's capacity: a ring past it is counted as an overflow and
 * dropped. A fold rewrites a queued record in place and never pushes.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "nic/qp_state.hh"
#include "sim/ring_fifo.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace qpip::nic {

/** One doorbell record. */
struct Doorbell
{
    /** QP number, or SRQ number when isSrq is set. */
    QpNum qp = invalidQp;
    bool isSend = false;
    /** Addressed to a shared receive queue instead of a QP. */
    bool isSrq = false;
    /**
     * Work requests announced by this record: 1 for a classic
     * per-post ring, the chain length for a chained post, the folded
     * total for a coalesced record. Cost accounting only — the
     * doorbell FSM's host-ring shadows stay authoritative for how
     * many WRs are actually fresh.
     */
    std::uint32_t wrCount = 1;
};

/**
 * The doorbell FIFO.
 */
class DoorbellFifo : public sim::SimObject
{
  public:
    DoorbellFifo(sim::Simulation &sim, std::string name,
                 std::size_t capacity = 1024);

    /**
     * Host-side posted write; arrives at the NIC after the PCI write
     * latency and triggers the drain hook (or folds into a pending
     * record for the same queue inside the coalescing window).
     */
    void ring(const Doorbell &db);

    /** NIC-side pop. @return false when empty. */
    bool pop(Doorbell &out);

    bool empty() const { return fifo_.empty(); }
    std::size_t depth() const { return fifo_.size(); }

    /** Invoked (at NIC time) whenever a record lands in the FIFO. */
    void setDrainHook(std::function<void()> hook)
    {
        drainHook_ = std::move(hook);
    }

    /** One-way posted-write latency host -> NIC SRAM. */
    sim::Tick writeLatency = 300 * sim::oneNs;

    /**
     * Non-zero: rings to a queue whose newest record is still queued
     * and younger than this fold into it instead of re-entering the
     * FIFO. Zero (default): every ring occupies its own slot.
     */
    sim::Tick coalesceWindow = 0;

    sim::Counter rings;
    sim::Counter overflows;
    /** Rings folded into a pending record by the coalescing window. */
    sim::Counter coalesced;
    /** WRs announced through multi-WR (chained) ring calls. */
    sim::Counter batchedWrs;

  private:
    /** NIC-side arrival of a posted write. */
    void arrive(const Doorbell &db);

    static std::uint64_t
    foldKey(const Doorbell &db)
    {
        return (std::uint64_t(db.qp) << 2) |
               (std::uint64_t(db.isSend) << 1) |
               std::uint64_t(db.isSrq);
    }

    /** Where a queue's newest record sits, and until when it folds. */
    struct FoldSlot
    {
        std::uint64_t seq = 0;
        sim::Tick until = 0;
    };

    std::size_t capacity_;
    sim::RingFifo<Doorbell> fifo_;
    /** Monotonic sequence number of the record at the FIFO's front. */
    std::uint64_t headSeq_ = 0;
    /** Per-queue newest-record tracker (integer-keyed, never
     *  iterated; stale entries are detected against headSeq_). */
    std::map<std::uint64_t, FoldSlot> foldable_;
    std::function<void()> drainHook_;
};

} // namespace qpip::nic
