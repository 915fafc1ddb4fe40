/**
 * @file
 * Deterministic pseudo-random numbers for the simulation.
 *
 * xoshiro256** seeded through splitmix64: fast, high quality, and —
 * unlike std::mt19937 + std::distributions — bit-for-bit reproducible
 * across standard library implementations, which the regression tests
 * rely on.
 *
 * Randomness belongs to the object that draws it: each one owns a
 * Random seeded by streamSeed() from the simulation seed and its own
 * name, so what one object draws never shifts another's stream, and
 * the draws do not depend on which partition runs the object.
 */

#pragma once

#include <cstdint>
#include <string_view>

namespace qpip::sim {

/**
 * A small deterministic PRNG (xoshiro256**).
 */
class Random
{
  public:
    explicit Random(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Re-seed the generator. */
    void seed(std::uint64_t seed);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi */
    std::uint64_t uniformInt(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double uniformReal();

    /** Bernoulli trial with probability @p p of returning true. */
    bool bernoulli(double p);

  private:
    std::uint64_t s_[4];
};

/**
 * Seed of one object's private stream: FNV-1a over the simulation
 * @p seed, the object's unique @p name and a @p salt that tells an
 * object's streams apart (a link's two directions). A fixed hash,
 * unlike std::hash, so every platform draws the same streams.
 */
std::uint64_t streamSeed(std::uint64_t seed, std::string_view name,
                         std::uint64_t salt = 0);

} // namespace qpip::sim
