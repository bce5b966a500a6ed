/**
 * @file
 * The fast-forward determinism contract (docs/performance.md): with
 * cycle skipping on and off, every statistic, result payload and
 * evaluation CSV must be byte-identical. These are golden
 * byte-for-byte comparisons across seeds, pairs and all enforcement
 * levels; under the ci-asan preset they also run with SOE_AUDIT
 * enabled, which exercises the jump-past-event and sample-boundary
 * audits on every jump.
 *
 * PointerChaseIsAlmostAllSkipped pins how much fast-forward skips
 * on a serial pointer chase, where ~99% of simulated cycles are
 * provably quiescent stalls. It is a count of skipped cycles, not a
 * host timing, so it holds on any machine.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "harness/machine_config.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "harness/system.hh"
#include "soe/engine.hh"
#include "soe/policies.hh"
#include "workload/profile.hh"

using namespace soefair;
using harness::MachineConfig;
using harness::RunConfig;
using harness::Runner;
using harness::ThreadSpec;

namespace
{

RunConfig
smallRun(bool fast_forward, std::ostream *dump)
{
    RunConfig rc;
    rc.warmupInstrs = 60 * 1000;
    rc.timingWarmInstrs = 10 * 1000;
    rc.measureInstrs = 30 * 1000;
    rc.fastForward = fast_forward;
    rc.statsDump = dump;
    return rc;
}

/** Stats dump + encoded payload of a single-thread run. */
std::string
stGolden(const std::string &bench, std::uint64_t seed, bool ff)
{
    std::ostringstream os;
    Runner runner(MachineConfig::benchDefault());
    auto r = runner.runSingleThread(ThreadSpec::benchmark(bench, seed),
                                    smallRun(ff, &os));
    return harness::encodeStPayload(r) + "\n" + os.str();
}

/**
 * Stats dump + encoded payload of an SOE pair at enforcement level
 * `f` (f == 0 is the miss-only policy, as in the evaluation sweep).
 */
std::string
soeGolden(const std::string &bench_a, const std::string &bench_b,
          std::uint64_t seed_a, std::uint64_t seed_b, double f,
          bool ff, double scale = 1.0)
{
    std::ostringstream os;
    Runner runner(MachineConfig::benchDefault());
    const std::vector<ThreadSpec> specs = {
        ThreadSpec::benchmark(bench_a, seed_a),
        ThreadSpec::benchmark(bench_b, seed_b)};
    const RunConfig rc = smallRun(ff, &os).scaled(scale);
    harness::SoeRunResult r;
    if (f == 0.0) {
        soe::MissOnlyPolicy pol;
        r = runner.runSoe(specs, pol, rc);
    } else {
        soe::FairnessPolicy pol(f, 300.0, 2);
        r = runner.runSoe(specs, pol, rc);
    }
    return harness::encodeSoePayload(r) + "\n" + os.str();
}

/**
 * Serial pointer-chase profile: almost every instruction is a load
 * into a 256 MB chase region with near-total dependence on the
 * previous load, so execution is a chain of back-to-back memory
 * misses (~Miss_lat cycles apiece) with nothing to overlap.
 */
workload::Profile
missHeavyProfile()
{
    workload::Profile p;
    p.name = "pchase";
    // Tiny, straight-line code footprint: the I-side must never be
    // the stall source in this scenario.
    p.code = {64, 6, 10, 0.30, 0.0};
    workload::Phase ph;
    ph.wIntAlu = 0.15;
    ph.wLoad = 1.0;
    ph.wStore = 0.0;
    // Near-total serialization: each load depends on its
    // predecessor, so misses cannot overlap.
    ph.depGeoP = 0.85;
    ph.depNone = 0.02;
    ph.hotBytes = 4 * 1024;
    ph.chaseBytes = 256ull * 1024 * 1024;
    ph.wRegion[unsigned(workload::RegionKind::Hot)] = 0.05;
    ph.wRegion[unsigned(workload::RegionKind::Stream)] = 0.0;
    ph.wRegion[unsigned(workload::RegionKind::Strided)] = 0.0;
    ph.wRegion[unsigned(workload::RegionKind::Chase)] = 1.0;
    p.phases = {ph};
    return p;
}

/** What one pointer-chase run leaves behind. */
struct ChaseRun
{
    std::uint64_t retired = 0;
    std::uint64_t cycles = 0;
    std::uint64_t skipped = 0;
    std::string stats;
};

/**
 * One pointer-chase thread under the miss-only SOE engine: caches
 * warmed with 20,000 instructions, then stepped in 1,000-cycle
 * chunks until 1,500 and then 5,000 more instructions retire.
 */
ChaseRun
pointerChase(bool ff)
{
    ThreadSpec spec;
    spec.profile = missHeavyProfile();
    spec.seed = 1;
    const MachineConfig mc = MachineConfig::benchDefault();
    harness::System sys(mc, {spec});
    soe::MissOnlyPolicy pol;
    soe::SoeEngine eng(mc.soe, pol, 1, &sys.stats());
    sys.setFastForward(ff);
    sys.warmCaches(20 * 1000);
    sys.start(&eng);
    for (std::uint64_t instrs : {1500u, 5000u}) {
        const std::uint64_t target = sys.core().retired(0) + instrs;
        while (sys.core().retired(0) < target)
            sys.step(1000);
    }
    std::ostringstream os;
    sys.dumpStats(os);
    return {sys.core().retired(0), sys.now(), sys.fastForwardCycles(),
            os.str()};
}

} // namespace

TEST(FastForward, SingleThreadGoldenAcrossSeeds)
{
    for (std::uint64_t seed : {3ull, 9ull}) {
        const std::string on = stGolden("mcf", seed, true);
        const std::string off = stGolden("mcf", seed, false);
        ASSERT_FALSE(on.empty());
        EXPECT_EQ(on, off) << "mcf seed " << seed;
    }
    EXPECT_EQ(stGolden("gcc", 5, true), stGolden("gcc", 5, false));
}

TEST(FastForward, SoeGoldenAllEnforcementLevels)
{
    // The standard evaluation levels F = 0, 1/4, 1/2, 1.
    for (double f : {0.0, 0.25, 0.5, 1.0}) {
        const std::string on = soeGolden("gcc", "art", 7, 11, f, true);
        const std::string off =
            soeGolden("gcc", "art", 7, 11, f, false);
        ASSERT_FALSE(on.empty());
        EXPECT_EQ(on, off) << "enforcement level " << f;
    }
}

TEST(FastForward, SoeGoldenMissBoundPairOtherSeeds)
{
    // Scaled down: the ff-off leg of an mcf pair simulates hundreds
    // of cycles per instruction, which is slow under sanitizers.
    for (double f : {0.0, 1.0}) {
        const std::string on =
            soeGolden("mcf", "eon", 13, 17, f, true, 0.35);
        const std::string off =
            soeGolden("mcf", "eon", 13, 17, f, false, 0.35);
        ASSERT_FALSE(on.empty());
        EXPECT_EQ(on, off) << "enforcement level " << f;
    }
}

TEST(FastForward, EvaluationCsvGolden)
{
    // The fig6/7/8 pipeline: EvaluationSweep -> writePairResultsCsv.
    auto sweepCsv = [](bool ff) {
        RunConfig rc = smallRun(ff, nullptr);
        rc.warmupInstrs = 30 * 1000;
        rc.measureInstrs = 15 * 1000;
        harness::EvaluationSweep sweep(MachineConfig::benchDefault(),
                                       rc);
        std::vector<harness::PairResult> results = {
            sweep.runPair("gcc", "mcf", {0.0, 0.5, 1.0})};
        std::ostringstream os;
        harness::writePairResultsCsv(os, results);
        return os.str();
    };
    const std::string on = sweepCsv(true);
    const std::string off = sweepCsv(false);
    ASSERT_NE(on.find("gcc"), std::string::npos);
    EXPECT_EQ(on, off);
}

TEST(FastForward, EngineActuallySkipsCycles)
{
    // Guard the guard: the golden comparisons above are vacuous if
    // fast-forward never engages on these workloads.
    auto jumps = [](bool ff) {
        MachineConfig mc = MachineConfig::benchDefault();
        harness::System sys(mc, {ThreadSpec::benchmark("mcf", 3)});
        sys.setFastForward(ff);
        sys.warmCaches(20 * 1000);
        soe::MissOnlyPolicy pol;
        soe::SoeEngine eng(mc.soe, pol, 1, &sys.stats());
        sys.start(&eng);
        sys.step(50 * 1000);
        EXPECT_EQ(sys.fastForwardEnabled(), ff);
        return sys.fastForwardJumps();
    };
    EXPECT_GT(jumps(true), 0u);
    EXPECT_EQ(jumps(false), 0u);
}

TEST(FastForward, EnvironmentToggle)
{
    ::setenv("SOEFAIR_FASTFORWARD", "0", 1);
    EXPECT_FALSE(RunConfig::fromEnv().fastForward);
    ::setenv("SOEFAIR_FASTFORWARD", "off", 1);
    EXPECT_FALSE(RunConfig::fromEnv().fastForward);
    ::setenv("SOEFAIR_FASTFORWARD", "1", 1);
    EXPECT_TRUE(RunConfig::fromEnv().fastForward);
    ::unsetenv("SOEFAIR_FASTFORWARD");
    EXPECT_TRUE(RunConfig::fromEnv().fastForward);
}

TEST(FastForward, PointerChaseIsAlmostAllSkipped)
{
    const ChaseRun on = pointerChase(true);
    ASSERT_GT(on.cycles, 0u);
    EXPECT_GE(double(on.skipped) / double(on.cycles), 0.99)
        << on.skipped << " of " << on.cycles << " cycles skipped";

    const ChaseRun off = pointerChase(false);
    EXPECT_EQ(off.skipped, 0u);
    EXPECT_EQ(on.retired, off.retired);
    EXPECT_EQ(on.cycles, off.cycles);
    EXPECT_EQ(on.stats, off.stats);
}
