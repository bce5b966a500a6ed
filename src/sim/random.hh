/**
 * @file
 * Deterministic random number generation for the simulator.
 *
 * All stochastic behaviour in soefair (workload generation, cache
 * replacement tie-breaks, ...) draws from instances of Rng, a
 * xorshift64* generator. The standard library engines are avoided so
 * that streams are bit-reproducible across platforms and library
 * versions; reproducibility is a property the fairness estimator
 * tests rely on (a thread's instruction stream must be identical
 * whether it runs alone or under SOE).
 */

#ifndef SOEFAIR_SIM_RANDOM_HH
#define SOEFAIR_SIM_RANDOM_HH

#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"

namespace soefair
{

/**
 * xorshift64* pseudo random number generator.
 *
 * Small (8 bytes of state), fast, and good enough for workload
 * synthesis. A zero seed is remapped to a fixed non-zero constant
 * because the all-zero state is a fixed point of the xorshift map.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
        : state(seed ? seed : 0x9e3779b97f4a7c15ull)
    {}

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t x = state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        state = x;
        return x * 0x2545f4914f6cdd1dull;
    }

    /** Uniform in [0, bound); bound must be > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        soefair_assert(bound > 0, "Rng::below with zero bound");
        // Modulo bias is negligible for our bounds (<< 2^64) and
        // irrelevant for workload synthesis.
        return next() % bound;
    }

    /** Uniform in [lo, hi] inclusive. */
    std::uint64_t
    inRange(std::uint64_t lo, std::uint64_t hi)
    {
        soefair_assert(lo <= hi, "Rng::inRange with lo > hi");
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    real()
    {
        // 53 high-quality bits -> double mantissa.
        return (next() >> 11) * (1.0 / 9007199254740992.0);
    }

    /** Bernoulli draw with probability p of true. */
    bool chance(double p) { return real() < p; }

    /**
     * Geometric draw: number of failures before the first success,
     * success probability p. Returns values in [0, cap].
     */
    std::uint64_t
    geometric(double p, std::uint64_t cap = 1u << 20)
    {
        soefair_assert(p > 0.0 && p <= 1.0, "geometric p out of range");
        // chance(p) is k * 2^-53 < p for the 53-bit draw k, which for
        // an integer k is exactly k < ceil(p * 2^53) (the product is
        // exact: a power-of-two scale). Same draws, no float per try.
        const auto threshold =
            std::uint64_t(std::ceil(p * 9007199254740992.0));
        std::uint64_t n = 0;
        while (n < cap && (next() >> 11) >= threshold)
            ++n;
        return n;
    }

    /** Serializable state access (for workload checkpoints). */
    std::uint64_t rawState() const { return state; }
    void setRawState(std::uint64_t s) { state = s ? s : 1; }

  private:
    std::uint64_t state;
};

/**
 * Sampler over a fixed discrete distribution (cumulative table).
 *
 * Built once from weights; draws are a binary search over the
 * cumulative weights, O(log n) per sample.
 */
class DiscreteSampler
{
  public:
    DiscreteSampler() = default;

    /** @param weights Non-negative weights; at least one positive. */
    explicit DiscreteSampler(const std::vector<double> &weights);

    /** Draw an index distributed according to the weights. */
    std::size_t sample(Rng &rng) const;

    /** Number of outcomes. */
    std::size_t size() const { return cumulative.size(); }

    /** Probability assigned to outcome i. */
    double probability(std::size_t i) const;

  private:
    std::vector<double> cumulative;
};

/**
 * Mix a 64-bit value into a well-distributed hash (splitmix64
 * finalizer). Used to derive independent sub-seeds from a master
 * seed plus a stream id.
 */
std::uint64_t mix64(std::uint64_t x);

/** Derive a child seed from a parent seed and a stream identifier. */
inline std::uint64_t
deriveSeed(std::uint64_t parent, std::uint64_t stream)
{
    return mix64(parent ^ mix64(stream + 0x9e3779b97f4a7c15ull));
}

} // namespace soefair

#endif // SOEFAIR_SIM_RANDOM_HH
