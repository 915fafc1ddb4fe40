#include "apps/disk.hh"

#include <algorithm>
#include <cmath>

namespace qpip::apps {

DiskModel::DiskModel(sim::Simulation &sim, std::string name,
                     DiskParams params)
    : SimObject(sim, std::move(name)), params_(params)
{}

void
DiskModel::access(std::uint64_t offset, std::size_t len,
                  std::function<void()> done)
{
    accesses.inc();
    sim::Tick position = 0;
    if (offset != nextSequential_) {
        position = params_.seekTime + params_.rotationalDelay;
        seeks.inc();
    }
    const auto media = static_cast<sim::Tick>(std::llround(
        static_cast<double>(len) / params_.bytesPerSec * 1e12));
    const sim::Tick start = std::max(curTick(), busyUntil_);
    busyUntil_ = start + position + media;
    nextSequential_ = offset + len;
    schedule(busyUntil_, std::move(done));
}

ServerStore::ServerStore(sim::Simulation &sim, std::string name,
                         std::uint64_t device_bytes, DiskParams disk,
                         std::size_t dirty_cap)
    : SimObject(sim, std::move(name)), deviceBytes_(device_bytes),
      disk_(sim, this->name() + ".disk", disk), dirtyCap_(dirty_cap)
{}

void
ServerStore::read(std::uint64_t offset, std::size_t len,
                  std::function<void()> done)
{
    if (offset + len <= cachedUpTo_) {
        cacheHits.inc();
        // RAM-speed: effectively immediate at this timescale.
        schedule(curTick(), std::move(done));
        return;
    }
    cacheMisses.inc();
    disk_.access(offset, len, [this, offset, len,
                               done = std::move(done)]() mutable {
        // Sequential reads populate the cache watermark.
        if (offset <= cachedUpTo_)
            cachedUpTo_ = std::max(cachedUpTo_, offset + len);
        done();
    });
}

void
ServerStore::write(std::uint64_t offset, std::size_t len,
                   std::function<void()> done)
{
    // Written data is cache-resident for subsequent reads.
    if (offset <= cachedUpTo_)
        cachedUpTo_ = std::max(cachedUpTo_, offset + len);

    dirtyQueue_.emplace_back(offset, len);
    dirtyBytes_ += len;
    drain();
    if (dirtyBytes_ <= dirtyCap_) {
        schedule(curTick(), std::move(done));
    } else {
        // Dirty buffer full: the writer blocks until the disk
        // catches up.
        writeWaiters_.emplace_back(len, std::move(done));
    }
}

void
ServerStore::drain()
{
    if (draining_ || dirtyQueue_.empty())
        return;
    draining_ = true;
    auto [offset, len] = dirtyQueue_.front();
    dirtyQueue_.pop_front();
    disk_.access(offset, len, [this, len = len] {
        dirtyBytes_ -= len;
        draining_ = false;
        serveWaiters();
        drain();
        if (dirtyQueue_.empty() && !flushWaiters_.empty()) {
            auto waiters = std::move(flushWaiters_);
            for (auto &w : waiters)
                w();
        }
    });
}

void
ServerStore::serveWaiters()
{
    while (!writeWaiters_.empty() && dirtyBytes_ <= dirtyCap_) {
        auto done = std::move(writeWaiters_.front().second);
        writeWaiters_.pop_front();
        done();
    }
}

void
ServerStore::flush(std::function<void()> done)
{
    if (dirtyQueue_.empty() && !draining_) {
        schedule(curTick(), std::move(done));
        return;
    }
    flushWaiters_.push_back(std::move(done));
}

} // namespace qpip::apps
