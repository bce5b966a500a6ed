/** @file Unit tests for the deterministic RNG and samplers. */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/logging.hh"
#include "sim/random.hh"
#include "workload/profile.hh"

using soefair::deriveSeed;
using soefair::DiscreteSampler;
using soefair::mix64;
using soefair::Rng;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, ZeroSeedIsRemapped)
{
    Rng z(0);
    EXPECT_NE(z.next(), 0u);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, BelowZeroPanics)
{
    Rng r(7);
    EXPECT_THROW(r.below(0), soefair::PanicError);
}

TEST(Rng, InRangeInclusive)
{
    Rng r(9);
    bool sawLo = false, sawHi = false;
    for (int i = 0; i < 20000; ++i) {
        auto v = r.inRange(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        sawLo = sawLo || v == 3;
        sawHi = sawHi || v == 6;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Rng, RealIsUniformish)
{
    Rng r(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        double v = r.real();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng r(13);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(double(hits) / n, 0.3, 0.01);
}

TEST(Rng, GeometricMeanMatches)
{
    Rng r(17);
    const double p = 0.25;
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += double(r.geometric(p));
    // mean of geometric (failures before success) = (1-p)/p = 3.
    EXPECT_NEAR(sum / n, 3.0, 0.1);
}

namespace
{

/** The chance()-per-try loop geometric() used to run. */
std::uint64_t
chanceLoopGeometric(Rng &r, double p, std::uint64_t cap)
{
    std::uint64_t n = 0;
    while (n < cap && !r.chance(p))
        ++n;
    return n;
}

} // namespace

TEST(Rng, GeometricMatchesChanceLoopDrawForDraw)
{
    // Every dependence-distance parameter the workload profiles use,
    // plus the edges of the domain.
    std::vector<double> ps = {1.0, 0.5, std::ldexp(1.0, -53)};
    for (const std::string &name : soefair::workload::spec::allNames()) {
        for (const auto &ph : soefair::workload::spec::byName(name).phases)
            ps.push_back(ph.depGeoP);
    }
    for (double p : ps) {
        for (std::uint64_t seed : {1ull, 7ull, 0xdeadbeefull, 1ull << 40}) {
            Rng fast(seed);
            Rng ref(seed);
            // A tiny cap keeps p = 2^-53 cheap; it then always caps.
            const std::uint64_t cap = p < 1e-9 ? 64 : 127;
            for (int i = 0; i < 2000; ++i) {
                ASSERT_EQ(fast.geometric(p, cap),
                          chanceLoopGeometric(ref, p, cap))
                    << "p=" << p << " seed=" << seed << " draw " << i;
            }
            EXPECT_EQ(fast.rawState(), ref.rawState())
                << "p=" << p << " seed=" << seed;
        }
    }
}

TEST(Rng, StateRoundTrip)
{
    Rng a(23);
    a.next();
    a.next();
    Rng b;
    b.setRawState(a.rawState());
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(DiscreteSampler, RespectsWeights)
{
    DiscreteSampler s({1.0, 3.0, 0.0, 6.0});
    Rng r(31);
    std::vector<int> counts(4, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[s.sample(r)];
    EXPECT_NEAR(counts[0] / double(n), 0.1, 0.01);
    EXPECT_NEAR(counts[1] / double(n), 0.3, 0.01);
    EXPECT_EQ(counts[2], 0);
    EXPECT_NEAR(counts[3] / double(n), 0.6, 0.01);
}

TEST(DiscreteSampler, ProbabilityAccessor)
{
    DiscreteSampler s({2.0, 2.0, 4.0});
    EXPECT_NEAR(s.probability(0), 0.25, 1e-12);
    EXPECT_NEAR(s.probability(1), 0.25, 1e-12);
    EXPECT_NEAR(s.probability(2), 0.5, 1e-12);
}

TEST(DiscreteSampler, RejectsBadWeights)
{
    EXPECT_THROW(DiscreteSampler(std::vector<double>{}),
                 soefair::PanicError);
    EXPECT_THROW(DiscreteSampler({0.0, 0.0}), soefair::PanicError);
    EXPECT_THROW(DiscreteSampler({1.0, -1.0}), soefair::PanicError);
}

TEST(Mix64, DistinctInputsDistinctOutputs)
{
    // Sanity: no collisions among small consecutive inputs.
    std::vector<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 1000; ++i)
        seen.push_back(mix64(i));
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST(DeriveSeed, IndependentStreams)
{
    // Children of the same parent with different stream ids differ.
    EXPECT_NE(deriveSeed(1, 0), deriveSeed(1, 1));
    EXPECT_NE(deriveSeed(1, 0), deriveSeed(2, 0));
    // And are stable.
    EXPECT_EQ(deriveSeed(99, 7), deriveSeed(99, 7));
}
