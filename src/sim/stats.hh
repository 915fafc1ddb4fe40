/**
 * @file
 * Lightweight statistics used everywhere in the simulator: counters,
 * running count/mean/min/max/total accumulators and fixed-bucket
 * histograms. The NIC firmware uses SampleStat per pipeline stage to
 * regenerate the paper's occupancy tables (Tables 2 and 3).
 */

#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace qpip::sim {

/** A monotonically increasing event counter. */
class Counter
{
  public:
    void inc(std::uint64_t by = 1) { value_ += by; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Accumulates samples and reports count/mean/min/max/total. The mean
 * is updated incrementally (Welford's running mean).
 */
class SampleStat
{
  public:
    void sample(double v);
    void reset();

    std::uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    double total() const { return sum_; }

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * A histogram over [lo, hi) with equal-width buckets plus underflow
 * and overflow buckets.
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t buckets);

    void sample(double v);
    void reset();

    std::uint64_t count() const { return count_; }
    std::uint64_t bucket(std::size_t i) const { return buckets_.at(i); }
    std::size_t numBuckets() const { return buckets_.size(); }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }

    /** Approximate quantile (0..1) from bucket midpoints. */
    double quantile(double q) const;

  private:
    double lo_, hi_, width_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t count_ = 0;
};

} // namespace qpip::sim
