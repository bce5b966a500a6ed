/**
 * @file
 * Runtime determinism contract (docs/correctness.md, "Determinism &
 * concurrency contracts"): the same seed run twice in-process — a
 * fresh System/Runner each time — must produce byte-identical sweep
 * payloads (the exact strings the job queue records and the CSV
 * emitters aggregate). detlint (DET-001..004) catches the *static*
 * ways this breaks; this test catches what no linter can see:
 * static-global state that leaks from one run into the next, e.g. a
 * function-local static cache, a global PRNG, or an allocator-
 * address-dependent value laundered into a stat.
 *
 * The interleaving matters: run A, then a *different* run B, then A
 * again. If any cross-run state survives, the second A differs from
 * the first, even though both would match in an A,A-only test.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "harness/machine_config.hh"
#include "harness/runner.hh"
#include "sim/annotations.hh"
#include "soe/policies.hh"

using namespace soefair;
using harness::MachineConfig;
using harness::RunConfig;
using harness::Runner;
using harness::ThreadSpec;

namespace
{

RunConfig
smallRun()
{
    RunConfig rc;
    rc.warmupInstrs = 80 * 1000;
    rc.timingWarmInstrs = 20 * 1000;
    rc.measureInstrs = 40 * 1000;
    return rc;
}

/** One complete SOE run from a fresh Runner, reduced to the payload
 *  string the job queue would record. */
std::string
soePayload(const std::string &wl_a, const std::string &wl_b,
           std::uint64_t seed_a, std::uint64_t seed_b)
{
    Runner runner(MachineConfig::benchDefault());
    soe::FairnessPolicy pol(0.8, 300.0, 2);
    const harness::SoeRunResult r = runner.runSoe(
        {ThreadSpec::benchmark(wl_a, seed_a),
         ThreadSpec::benchmark(wl_b, seed_b)},
        pol, smallRun());
    return harness::encodeSoePayload(r);
}

/** Single-thread twin, via the ST payload codec. */
std::string
stPayload(const std::string &wl, std::uint64_t seed)
{
    Runner runner(MachineConfig::benchDefault());
    const harness::StRunResult r = runner.runSingleThread(
        ThreadSpec::benchmark(wl, seed), smallRun());
    return harness::encodeStPayload(r);
}

} // namespace

TEST(DetContract, SoePayloadIdenticalAcrossInterleavedRuns)
{
    const std::string first = soePayload("gcc", "art", 7, 11);
    // A deliberately different run in between: any static-global
    // leakage it causes must not perturb the repeat below.
    const std::string other = soePayload("mcf", "eon", 3, 5);
    const std::string second = soePayload("gcc", "art", 7, 11);

    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second);
    EXPECT_NE(first, other) << "payloads insensitive to the run; "
                               "the identity check is vacuous";
}

TEST(DetContract, StPayloadIdenticalAcrossInterleavedRuns)
{
    const std::string first = stPayload("mcf", 3);
    const std::string other = stPayload("gcc", 9);
    const std::string second = stPayload("mcf", 3);

    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second);
    EXPECT_NE(first, other);
}

TEST(DetContract, PayloadsRoundTripThroughCodecs)
{
    // The byte-identity above is only as strong as the codec: a
    // lossy encode would let two different runs alias. Decode and
    // re-encode must reproduce the exact bytes.
    const std::string payload = soePayload("gcc", "art", 7, 11);
    harness::SoeRunResult decoded;
    ASSERT_TRUE(harness::decodeSoePayload(payload, decoded));
    EXPECT_EQ(harness::encodeSoePayload(decoded), payload);

    const std::string st = stPayload("mcf", 3);
    harness::StRunResult st_decoded;
    ASSERT_TRUE(harness::decodeStPayload(st, st_decoded));
    EXPECT_EQ(harness::encodeStPayload(st_decoded), st);
}

TEST(DetContract, AnnotatedMutexHasLockSemantics)
{
    // The annotation layer's capability-carrying lock wrappers
    // (sim/annotations.hh) must behave like the std::mutex they wrap
    // on every compiler, not only under clang's analysis.
    AnnotatedMutex m;
    bool acquired = false;
    {
        AnnotatedLock lock(m);
        // Contend from another thread: the probe must fail while the
        // scoped lock is held. (Same-thread try-lock would be both
        // UB on std::mutex and a thread-safety-analysis error.)
        std::thread probe([&m, &acquired] {
            acquired = m.tryLock();
            if (acquired)
                m.unlock();
        });
        probe.join();
        EXPECT_FALSE(acquired);
    }
    acquired = m.tryLock();
    EXPECT_TRUE(acquired);
    if (acquired)
        m.unlock();
}
