/**
 * @file
 * Tests for the generation read-ahead (workload/readahead.hh): the
 * stream a helper thread produces is the generator's own, op for op;
 * squash/replay through InstStream is unchanged on top of it; a
 * helper is always joined, whatever state its ring is in; and a
 * System whose helpers are stopped mid-run by generator() produces
 * the same result as an uninterrupted one. Under the ci-tsan preset
 * these also check the handoff for data races.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "harness/machine_config.hh"
#include "harness/runner.hh"
#include "harness/system.hh"
#include "soe/engine.hh"
#include "soe/policies.hh"
#include "workload/generator.hh"
#include "workload/inst_stream.hh"
#include "workload/profile.hh"
#include "workload/readahead.hh"

using namespace soefair;
using namespace soefair::workload;

namespace
{

constexpr std::uint32_t cap = ReadAhead::capacity;

::testing::AssertionResult
sameOp(const isa::MicroOp &a, const isa::MicroOp &b)
{
    if (a.seqNum == b.seqNum && a.pc == b.pc && a.op == b.op &&
        a.src0 == b.src0 && a.src1 == b.src1 && a.dest == b.dest &&
        a.memAddr == b.memAddr && a.memSize == b.memSize &&
        a.taken == b.taken && a.target == b.target) {
        return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
        << "ops differ at seq " << a.seqNum << " / " << b.seqNum;
}

} // namespace

TEST(ReadAhead, MatchesGeneratorForEveryProfile)
{
    // Three and a half ring lengths: the ring wraps several times
    // and the helper sleeps on a full ring in between.
    const std::uint32_t n = 3 * cap + cap / 2;
    for (const auto &name : spec::allNames()) {
        for (std::uint64_t seed : {1ull, 29ull}) {
            WorkloadGenerator plain(spec::byName(name), 1, seed);
            WorkloadGenerator ahead(spec::byName(name), 1, seed);
            ReadAhead ra(ahead);
            ra.start();
            for (std::uint32_t i = 0; i < n; ++i) {
                ASSERT_TRUE(sameOp(plain.next(), ra.next()))
                    << name << " seed " << seed << " op " << i;
            }
        }
    }
}

TEST(ReadAhead, StopAndRestartKeepTheStream)
{
    WorkloadGenerator plain(spec::byName("mcf"), 0, 5);
    WorkloadGenerator ahead(spec::byName("mcf"), 0, 5);
    ReadAhead ra(ahead);
    // Before any start the consumer generates for itself.
    for (int i = 0; i < 10; ++i)
        ASSERT_TRUE(sameOp(plain.next(), ra.next()));
    for (std::uint32_t round = 0; round < 12; ++round) {
        ra.start();
        for (std::uint32_t i = 0; i < 700 + 97 * round; ++i)
            ASSERT_TRUE(sameOp(plain.next(), ra.next()));
        ra.stop();
        // Whatever the helper buffered comes out first, then the
        // generator continues behind it.
        EXPECT_EQ(ahead.generated(), plain.generated() + ra.buffered());
        for (std::uint32_t i = 0; i < 50; ++i)
            ASSERT_TRUE(sameOp(plain.next(), ra.next()));
    }
}

TEST(ReadAhead, InstStreamSquashReplayCommit)
{
    WorkloadGenerator plainGen(spec::byName("gcc"), 0, 21);
    WorkloadGenerator aheadGen(spec::byName("gcc"), 0, 21);
    ReadAhead ra(aheadGen);
    ra.start();
    InstStream plain(plainGen);
    InstStream ahead(ra);

    // The same fetch / commit / squash schedule on both streams,
    // long enough to wrap the read-ahead ring.
    InstSeqNum committed = 0;
    for (int round = 0; round < 200; ++round) {
        for (int i = 0; i < 60; ++i)
            ASSERT_TRUE(sameOp(plain.fetchNext(), ahead.fetchNext()));
        committed += 25;
        plain.commitUpTo(committed);
        ahead.commitUpTo(committed);
        const InstSeqNum squashAt =
            round % 3 == 0 ? invalidSeqNum : committed + 5;
        plain.squashAfter(squashAt);
        ahead.squashAfter(squashAt);
        ASSERT_EQ(plain.buffered(), ahead.buffered());
        ASSERT_TRUE(sameOp(plain.peek(), ahead.peek()));
    }
    EXPECT_GT(plainGen.generated(), 2 * std::uint64_t(cap));
}

TEST(ReadAhead, DestroyNeverStarted)
{
    WorkloadGenerator gen(spec::byName("eon"), 0, 3);
    {
        ReadAhead ra(gen);
        EXPECT_FALSE(ra.running());
    }
    EXPECT_EQ(gen.generated(), 0u);
    {
        ReadAhead ra(gen);
        ra.start();
        ra.stop();
        ra.stop();
        EXPECT_FALSE(ra.running());
    }
}

TEST(ReadAhead, DestroyWithFullRing)
{
    WorkloadGenerator gen(spec::byName("eon"), 0, 3);
    auto ra = std::make_unique<ReadAhead>(gen);
    // Nothing is consumed: wait (bounded) until the helper has filled
    // the ring; it then sleeps waiting for room.
    for (int i = 0; i < 10000; ++i) {
        ra->start();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ra->stop();
        if (ra->buffered() == cap)
            break;
    }
    ASSERT_EQ(ra->buffered(), cap);
    ra->start();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ra.reset(); // must wake the sleeping helper and join it
    SUCCEED();
}

TEST(ReadAhead, SystemDestroysWithAndWithoutHelpers)
{
    using harness::MachineConfig;
    using harness::System;
    using harness::ThreadSpec;
    const auto mc = MachineConfig::benchDefault();
    {
        System sys(mc, {ThreadSpec::benchmark("gcc", 1),
                        ThreadSpec::benchmark("eon", 2)});
    }
    {
        System sys(mc, {ThreadSpec::benchmark("gcc", 1),
                        ThreadSpec::benchmark("eon", 2)});
        soe::MissOnlyPolicy pol;
        soe::SoeEngine eng(mc.soe, pol, 2, &sys.stats());
        sys.start(&eng);
        sys.step(5000);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    SUCCEED();
}

namespace
{

/**
 * encodeSoePayload of a gcc:eon run of a fixed number of cycles
 * under the fairness policy, stepped in 500-cycle slices. With
 * `interrupt`, every slice ends by reaching each generator through
 * System::generator(), which joins the helpers mid-run.
 */
std::string
soePayload(bool interrupt)
{
    using harness::MachineConfig;
    using harness::System;
    using harness::ThreadSpec;
    const auto mc = MachineConfig::benchDefault();
    System sys(mc, {ThreadSpec::benchmark("gcc", 1),
                    ThreadSpec::benchmark("eon", 2)});
    sys.warmCaches(20000);
    soe::FairnessPolicy pol(0.5, mc.soe.missLatency, 2);
    soe::SoeEngine eng(mc.soe, pol, 2, &sys.stats());
    sys.start(&eng);
    std::uint64_t generated = 0;
    for (int slice = 0; slice < 300; ++slice) {
        sys.step(500);
        if (!interrupt)
            continue;
        for (ThreadID t = 0; t < 2; ++t) {
            // The generator never runs behind what was fetched.
            EXPECT_GE(sys.generator(t).generated(),
                      sys.core().retired(t));
            generated += sys.generator(t).generated();
        }
    }
    EXPECT_TRUE(!interrupt || generated > 0);
    eng.finalize(sys.now());

    harness::SoeRunResult res;
    res.cycles = sys.now();
    std::uint64_t total = 0;
    for (ThreadID t = 0; t < 2; ++t) {
        const auto &c = eng.context(t);
        harness::ThreadRunStats th;
        th.instrs = c.totals.instrs;
        th.misses = c.totals.misses;
        th.runCycles = c.totals.cycles;
        th.ipc = double(th.instrs) / double(res.cycles);
        total += th.instrs;
        res.threads.push_back(th);
    }
    res.ipcTotal = double(total) / double(res.cycles);
    res.switchesMiss = sys.core().switchesMiss.value();
    res.switchesForced = sys.core().switchesForced.value();
    res.switchesQuota = sys.core().switchesQuota.value();
    return harness::encodeSoePayload(res);
}

} // namespace

TEST(ReadAhead, SystemGeneratorMidRunKeepsPayload)
{
    const std::string straight = soePayload(false);
    const std::string interrupted = soePayload(true);
    ASSERT_FALSE(straight.empty());
    EXPECT_EQ(straight, interrupted);
}
