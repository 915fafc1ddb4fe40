/**
 * @file
 * Storage substrate for the Network Block Device experiment: a
 * rotational disk model (seek + rotational + media rate, with
 * sequential-access detection) and the server-side store that fronts
 * it with a RAM cache and bounded write-behind, like the user-level
 * NBD server sitting on a 2001-era filesystem.
 */

#pragma once

#include <functional>

#include "sim/ring_fifo.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace qpip::apps {

/** Rotational disk parameters (roughly a 10k RPM SCSI disk). */
struct DiskParams
{
    double bytesPerSec = 50e6;
    sim::Tick seekTime = 5 * sim::oneMs;
    sim::Tick rotationalDelay = 2 * sim::oneMs;
};

/**
 * A serialized disk with sequential detection.
 */
class DiskModel : public sim::SimObject
{
  public:
    DiskModel(sim::Simulation &sim, std::string name,
              DiskParams params = DiskParams{});

    /**
     * Access [offset, offset+len); @p done runs at completion.
     * Back-to-back sequential accesses skip the positioning time.
     */
    void access(std::uint64_t offset, std::size_t len,
                std::function<void()> done);

    sim::Tick busyUntil() const { return busyUntil_; }

    sim::Counter accesses;
    sim::Counter seeks;

  private:
    DiskParams params_;
    sim::Tick busyUntil_ = 0;
    std::uint64_t nextSequential_ = ~std::uint64_t(0);
};

/**
 * The NBD server's backing store: RAM cache over the disk, with a
 * bounded dirty buffer drained by the disk (write-behind). A read
 * hits the cache when the block was written this run or preloaded;
 * writes complete into the dirty buffer and block only when it fills.
 */
class ServerStore : public sim::SimObject
{
  public:
    ServerStore(sim::Simulation &sim, std::string name,
                std::uint64_t device_bytes,
                DiskParams disk = DiskParams{},
                std::size_t dirty_cap = 64 * 1024 * 1024);

    std::uint64_t deviceBytes() const { return deviceBytes_; }

    /** Mark the whole device resident in the server's page cache. */
    void preloadCache() { cachedUpTo_ = deviceBytes_; }

    /** Read [offset, offset+len); done(cache_hit) at completion. */
    void read(std::uint64_t offset, std::size_t len,
              std::function<void()> done);

    /** Write; done fires when the data is accepted (buffered). */
    void write(std::uint64_t offset, std::size_t len,
               std::function<void()> done);

    /** Flush the dirty buffer ('sync'); done when drained. */
    void flush(std::function<void()> done);

    sim::Counter cacheHits;
    sim::Counter cacheMisses;

  private:
    void drain();
    void serveWaiters();

    std::uint64_t deviceBytes_;
    DiskModel disk_;
    std::size_t dirtyCap_;
    std::size_t dirtyBytes_ = 0;
    bool draining_ = false;
    /** Sequential cache watermark: [0, cachedUpTo_) is resident. */
    std::uint64_t cachedUpTo_ = 0;
    sim::RingFifo<std::pair<std::size_t, std::function<void()>>>
        writeWaiters_;
    sim::RingFifo<std::function<void()>> flushWaiters_;
    /** Pending dirty extents to push to disk. */
    sim::RingFifo<std::pair<std::uint64_t, std::size_t>> dirtyQueue_;
};

} // namespace qpip::apps
