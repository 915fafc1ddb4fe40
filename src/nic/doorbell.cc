#include "nic/doorbell.hh"

namespace qpip::nic {

DoorbellFifo::DoorbellFifo(sim::Simulation &sim, std::string name,
                           std::size_t capacity)
    : SimObject(sim, std::move(name)), capacity_(capacity)
{
    regStat("rings", rings);
    regStat("overflows", overflows);
    regStat("coalesced", coalesced);
    regStat("batchedWrs", batchedWrs);
}

void
DoorbellFifo::ring(const Doorbell &db)
{
    rings.inc();
    if (db.wrCount > 1)
        batchedWrs.inc(db.wrCount);
    scheduleIn(writeLatency, [this, db] { arrive(db); });
}

void
DoorbellFifo::arrive(const Doorbell &db)
{
    if (coalesceWindow > 0) {
        auto it = foldable_.find(foldKey(db));
        if (it != foldable_.end() && it->second.seq >= headSeq_ &&
            curTick() <= it->second.until) {
            // The queue's newest record is still awaiting the drain
            // FSM: this ring folds into it. No drain hook — the
            // record it joined already triggered one.
            fifo_[it->second.seq - headSeq_].wrCount += db.wrCount;
            coalesced.inc();
            return;
        }
    }
    if (fifo_.size() >= capacity_) {
        overflows.inc();
        return;
    }
    if (coalesceWindow > 0) {
        foldable_[foldKey(db)] =
            FoldSlot{headSeq_ + fifo_.size(), curTick() + coalesceWindow};
    }
    fifo_.push_back(db);
    if (drainHook_)
        drainHook_();
}

bool
DoorbellFifo::pop(Doorbell &out)
{
    if (fifo_.empty())
        return false;
    out = fifo_.front();
    fifo_.pop_front();
    ++headSeq_;
    return true;
}

} // namespace qpip::nic
