/**
 * @file
 * A chunked byte FIFO with O(1) amortized append/drop and random
 * access copy-out. Backs the TCP stream send buffer and the socket
 * layer's sockbufs, where a plain deque<uint8_t> would make the
 * 400 MB NBD runs crawl.
 *
 * Two hot-path refinements over the naive chunk list:
 *  - appends coalesce into the tail chunk (up to coalesceBytes), so a
 *    stream written in small writes doesn't degenerate into thousands
 *    of tiny chunks;
 *  - copyOut() caches a seek cursor (logical offset -> chunk index)
 *    so the advancing per-segment reads TCP issues (offset 0, mss,
 *    2*mss, ...) resume from the previous position instead of
 *    rescanning the chunk list from the head every time.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "sim/ring_fifo.hh"

namespace qpip::inet {

/**
 * FIFO of bytes stored as a ring of chunks.
 */
class ByteFifo
{
  public:
    /** Tail chunks grow by coalescing appends up to this size. */
    static constexpr std::size_t coalesceBytes = 16384;

    /** Append bytes at the tail. */
    void
    append(std::span<const std::uint8_t> data)
    {
        if (data.empty())
            return;
        if (!chunks_.empty() &&
            chunks_.back().size() + data.size() <= coalesceBytes) {
            auto &tail = chunks_.back();
            tail.insert(tail.end(), data.begin(), data.end());
        } else {
            chunks_.emplace_back(data.begin(), data.end());
        }
        size_ += data.size();
    }

    /**
     * Copy @p len bytes starting @p offset bytes past the head into
     * @p dst. @pre offset + len <= size()
     */
    void
    copyOut(std::size_t offset, std::size_t len, std::uint8_t *dst) const
    {
        // Seek: resume from the cached cursor when reading at or past
        // it (the common sequential-segment case), else from the head.
        std::size_t ci = 0;
        std::size_t pos = headOffset_ + offset;
        if (cursorValid_ && offset >= cursorLogical_) {
            ci = cursorChunk_;
            pos = cursorIntra_ + (offset - cursorLogical_);
        }
        while (ci < chunks_.size() && pos >= chunks_[ci].size()) {
            pos -= chunks_[ci].size();
            ++ci;
        }
        if (ci < chunks_.size()) {
            // Cache where this read starts (never a past-the-end
            // position: a later coalescing append would invalidate it).
            cursorValid_ = true;
            cursorLogical_ = offset;
            cursorChunk_ = ci;
            cursorIntra_ = pos;
        }
        while (len > 0) {
            const auto &chunk = chunks_[ci];
            const std::size_t n = std::min(len, chunk.size() - pos);
            // qpip-lint: wire-ok(bulk payload copy, no wire format)
            std::memcpy(dst, chunk.data() + pos, n);
            dst += n;
            len -= n;
            pos = 0;
            ++ci;
        }
    }

    /** Drop @p n bytes from the head. @pre n <= size() */
    void
    drop(std::size_t n)
    {
        size_ -= n;
        // The cursor's logical coordinate shifts with the head; its
        // chunk index shifts by the number of chunks popped.
        if (cursorValid_) {
            if (cursorLogical_ >= n)
                cursorLogical_ -= n;
            else
                cursorValid_ = false;
        }
        while (n > 0) {
            auto &head = chunks_.front();
            const std::size_t avail = head.size() - headOffset_;
            if (n < avail) {
                headOffset_ += n;
                return;
            }
            n -= avail;
            headOffset_ = 0;
            chunks_.pop_front();
            if (cursorValid_) {
                if (cursorChunk_ == 0)
                    cursorValid_ = false;
                else
                    --cursorChunk_;
            }
        }
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /** Chunk slots allocated: 0 until the first append. */
    std::size_t chunkSlots() const { return chunks_.capacity(); }

    void
    clear()
    {
        chunks_.clear();
        headOffset_ = 0;
        size_ = 0;
        cursorValid_ = false;
        cursorLogical_ = 0;
        cursorChunk_ = 0;
        cursorIntra_ = 0;
    }

  private:
    sim::RingFifo<std::vector<std::uint8_t>> chunks_;
    std::size_t headOffset_ = 0;
    std::size_t size_ = 0;

    // Cached seek cursor: logical offset cursorLogical_ (in copyOut
    // coordinates) lives at chunks_[cursorChunk_][cursorIntra_].
    // mutable: copyOut is logically const.
    mutable bool cursorValid_ = false;
    mutable std::size_t cursorLogical_ = 0;
    mutable std::size_t cursorChunk_ = 0;
    mutable std::size_t cursorIntra_ = 0;
};

} // namespace qpip::inet
