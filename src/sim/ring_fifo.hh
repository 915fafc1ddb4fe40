/**
 * @file
 * A FIFO that costs one pointer and three words while empty: a
 * power-of-two ring over a single heap array, allocated one slot wide
 * on the first push and doubled when full.
 *
 * It backs the per-QP, per-connection and per-device queues, where
 * thousands of instances sit empty for a whole run. A default-
 * constructed libstdc++ std::deque allocates its map and a 512 B node
 * up front (about 600 B), which at 8K connections and 12K QPs is most
 * of a scale-out run's heap.
 *
 * The one rule that differs from std::deque: a push that grows the
 * ring moves every element to the new array, so references, pointers
 * and iterators into the FIFO do not survive a push. Hold none across
 * anything that may push to the same FIFO. (A container element that
 * owns heap storage, such as a std::vector, keeps its buffer across
 * the move, so a span into that buffer does survive.)
 */

#pragma once

#include <cstddef>
#include <iterator>
#include <memory>
#include <utility>

namespace qpip::sim {

template <class T>
class RingFifo
{
  public:
    using value_type = T;
    using size_type = std::size_t;

    /**
     * Capacity of the first allocation. One slot: most of these
     * queues never hold more than one entry at a time (a fan-in QP
     * has one message in flight), and a ring keeps its storage once
     * drained, so any slot beyond the high-water mark is held for the
     * queue's whole life. A queue that does fill pays one reallocation
     * per doubling; freeing the storage on drain instead would
     * reallocate on every send of a one-in-flight exchange.
     */
    static constexpr size_type minCapacity = 1;

    RingFifo() noexcept = default;
    RingFifo(const RingFifo &) = delete;
    RingFifo &operator=(const RingFifo &) = delete;

    RingFifo(RingFifo &&o) noexcept
        : buf_(std::exchange(o.buf_, nullptr)),
          cap_(std::exchange(o.cap_, 0)),
          head_(std::exchange(o.head_, 0)),
          size_(std::exchange(o.size_, 0))
    {}

    RingFifo &
    operator=(RingFifo &&o) noexcept
    {
        if (this != &o) {
            release();
            buf_ = std::exchange(o.buf_, nullptr);
            cap_ = std::exchange(o.cap_, 0);
            head_ = std::exchange(o.head_, 0);
            size_ = std::exchange(o.size_, 0);
        }
        return *this;
    }

    ~RingFifo() { release(); }

    bool empty() const { return size_ == 0; }
    size_type size() const { return size_; }
    /** Slots allocated: 0 until the first push. */
    size_type capacity() const { return cap_; }

    T &operator[](size_type i) { return buf_[(head_ + i) & (cap_ - 1)]; }
    const T &
    operator[](size_type i) const
    {
        return buf_[(head_ + i) & (cap_ - 1)];
    }

    T &front() { return buf_[head_]; }
    const T &front() const { return buf_[head_]; }
    T &back() { return (*this)[size_ - 1]; }
    const T &back() const { return (*this)[size_ - 1]; }

    void push_back(const T &v) { emplace_back(v); }
    void push_back(T &&v) { emplace_back(std::move(v)); }

    template <class... Args>
    T &
    emplace_back(Args &&...args)
    {
        if (size_ == cap_)
            return growAndEmplace(std::forward<Args>(args)...);
        T *slot = buf_ + ((head_ + size_) & (cap_ - 1));
        std::construct_at(slot, std::forward<Args>(args)...);
        ++size_;
        return *slot;
    }

    void
    pop_front()
    {
        std::destroy_at(buf_ + head_);
        head_ = (head_ + 1) & (cap_ - 1);
        --size_;
    }

    /** Destroy every element; the storage is kept for reuse. */
    void
    clear()
    {
        while (size_ > 0)
            pop_front();
        head_ = 0;
    }

    /**
     * Forward iterator over positions head_..head_+size_, unwrapped;
     * the mask folds a position onto its slot. Read-only: every walk
     * over a queue only reads it.
     */
    class const_iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = const T *;
        using reference = const T &;

        const_iterator() = default;
        const_iterator(const T *buf, size_type mask, size_type pos)
            : buf_(buf), mask_(mask), pos_(pos)
        {}

        reference operator*() const { return buf_[pos_ & mask_]; }
        pointer operator->() const { return buf_ + (pos_ & mask_); }

        const_iterator &
        operator++()
        {
            ++pos_;
            return *this;
        }

        const_iterator
        operator++(int)
        {
            const_iterator old = *this;
            ++pos_;
            return old;
        }

        bool
        operator==(const const_iterator &o) const
        {
            return pos_ == o.pos_;
        }

      private:
        const T *buf_ = nullptr;
        size_type mask_ = 0;
        size_type pos_ = 0;
    };

    const_iterator begin() const { return {buf_, cap_ - 1, head_}; }
    const_iterator end() const { return {buf_, cap_ - 1, head_ + size_}; }

  private:

    /**
     * Double the ring (or make the first one), unwrapping it, and
     * append. The new element is built first: @p args may name an
     * element of this ring, which the move below destroys.
     */
    template <class... Args>
    T &
    growAndEmplace(Args &&...args)
    {
        const size_type cap = cap_ == 0 ? minCapacity : 2 * cap_;
        T *buf = std::allocator<T>().allocate(cap);
        T *slot = buf + size_;
        try {
            std::construct_at(slot, std::forward<Args>(args)...);
        } catch (...) {
            std::allocator<T>().deallocate(buf, cap);
            throw;
        }
        for (size_type i = 0; i < size_; ++i) {
            T &old = buf_[(head_ + i) & (cap_ - 1)];
            std::construct_at(buf + i, std::move(old));
            std::destroy_at(&old);
        }
        if (buf_ != nullptr)
            std::allocator<T>().deallocate(buf_, cap_);
        buf_ = buf;
        cap_ = cap;
        head_ = 0;
        ++size_;
        return *slot;
    }

    void
    release()
    {
        if (buf_ == nullptr)
            return;
        clear();
        std::allocator<T>().deallocate(buf_, cap_);
        buf_ = nullptr;
        cap_ = 0;
    }

    T *buf_ = nullptr;
    size_type cap_ = 0;
    size_type head_ = 0;
    size_type size_ = 0;
};

} // namespace qpip::sim
