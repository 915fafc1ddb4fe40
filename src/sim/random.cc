#include "sim/random.hh"

namespace qpip::sim {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Random::Random(std::uint64_t seed_value)
{
    seed(seed_value);
}

void
Random::seed(std::uint64_t seed_value)
{
    std::uint64_t x = seed_value;
    for (auto &s : s_)
        s = splitmix64(x);
}

std::uint64_t
Random::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

std::uint64_t
Random::uniformInt(std::uint64_t lo, std::uint64_t hi)
{
    const std::uint64_t span = hi - lo + 1;
    if (span == 0) // full 64-bit range
        return next();
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = ~std::uint64_t(0) - (~std::uint64_t(0) % span);
    std::uint64_t v;
    do {
        v = next();
    } while (v >= limit && limit != 0);
    return lo + (v % span);
}

double
Random::uniformReal()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Random::bernoulli(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniformReal() < p;
}

std::uint64_t
streamSeed(std::uint64_t seed, std::string_view name, std::uint64_t salt)
{
    std::uint64_t h = 14695981039346656037ULL;
    const auto mix = [&h](std::uint64_t byte) {
        h ^= byte & 0xff;
        h *= 1099511628211ULL;
    };
    for (int shift = 0; shift < 64; shift += 8)
        mix(seed >> shift);
    for (const char c : name)
        mix(static_cast<unsigned char>(c));
    for (int shift = 0; shift < 64; shift += 8)
        mix(salt >> shift);
    return h;
}

} // namespace qpip::sim
