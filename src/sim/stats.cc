#include "sim/stats.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace qpip::sim {

void
SampleStat::sample(double v)
{
    ++n_;
    sum_ += v;
    const double delta = v - mean_;
    mean_ += delta / static_cast<double>(n_);
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
}

void
SampleStat::reset()
{
    *this = SampleStat();
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi),
      width_((hi - lo) / static_cast<double>(buckets)),
      buckets_(buckets, 0)
{
    if (hi <= lo || buckets == 0)
        panic("bad histogram bounds");
}

void
Histogram::sample(double v)
{
    ++count_;
    if (v < lo_) {
        ++underflow_;
    } else if (v >= hi_) {
        ++overflow_;
    } else {
        auto idx = static_cast<std::size_t>((v - lo_) / width_);
        idx = std::min(idx, buckets_.size() - 1);
        ++buckets_[idx];
    }
}

void
Histogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    underflow_ = overflow_ = count_ = 0;
}

double
Histogram::quantile(double q) const
{
    if (count_ == 0)
        return 0.0;
    const auto target = static_cast<std::uint64_t>(
        q * static_cast<double>(count_));
    std::uint64_t seen = underflow_;
    if (seen > target)
        return lo_;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        seen += buckets_[i];
        if (seen > target)
            return lo_ + (static_cast<double>(i) + 0.5) * width_;
    }
    return hi_;
}

} // namespace qpip::sim
