/**
 * @file
 * In-process multithreaded sweep executor tests.
 *
 * The load-bearing guarantee is the golden three-way equivalence: a
 * campaign drained on the thread pool, one drained fork-per-job and
 * one run serially in-process must aggregate to byte-identical CSV.
 * Around it: escalation-to-fork for transient failures, poison-job
 * quarantine confined to the poisoned job, and graceful stop that
 * leaves unstarted jobs un-consumed.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <csignal>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "harness/machine_config.hh"
#include "harness/service/service.hh"
#include "harness/sweep.hh"
#include "sim/errors.hh"

using namespace soefair;
using namespace soefair::harness;
using namespace soefair::harness::service;

namespace
{

struct TempDir
{
    explicit TempDir(const char *name)
        : path(std::string("/tmp/soefair_pool_") + name + "_" +
               std::to_string(::getpid()))
    {
        std::filesystem::remove_all(path);
    }
    ~TempDir() { std::filesystem::remove_all(path); }
    std::string path;
};

RunConfig
tinyRun()
{
    RunConfig rc;
    rc.warmupInstrs = 20 * 1000;
    rc.timingWarmInstrs = 5 * 1000;
    rc.measureInstrs = 20 * 1000;
    return rc;
}

CampaignManifest
tinyManifest(std::vector<double> levels = {0.0, 0.5})
{
    CampaignManifest m;
    m.pairs = {{"gcc", "eon"}};
    m.levels = std::move(levels);
    m.rc = tinyRun();
    return m;
}

ServiceConfig
quickConfig(const std::string &queue_dir, const std::string &cache_dir)
{
    ServiceConfig cfg;
    cfg.queueDir = queue_dir;
    cfg.cacheDir = cache_dir;
    cfg.deadlineSeconds = 120.0;
    cfg.leaseSeconds = 120.0;
    cfg.backoffBaseSeconds = 0.01;
    cfg.pollSeconds = 0.05;
    return cfg;
}

/** Enqueue + serve + aggregate one campaign, return its CSV. */
std::string
drainToCsv(const CampaignManifest &m, ServiceConfig cfg,
           WorkerStats *stats_out = nullptr)
{
    SweepService svc(cfg);
    svc.enqueueCampaign(m);
    WorkerStats ws = svc.serve();
    if (stats_out)
        *stats_out = ws;
    auto agg = svc.aggregate();
    std::ostringstream csv;
    writeCampaignCsv(csv, agg);
    return csv.str();
}

} // namespace

TEST(WorkerPool, ThreadedForkAndSerialDrainsAreByteIdentical)
{
    const CampaignManifest m = tinyManifest();

    // Serial in-process reference (the pre-service sweep path).
    EvaluationSweep sweep(MachineConfig::benchDefault(), m.rc);
    std::vector<PairResult> ref = {
        sweep.runPair("gcc", "eon", m.levels)};
    std::ostringstream refCsv;
    writePairResultsCsv(refCsv, ref);

    // Fork-per-job drain, 2 slots, fresh queue + cache.
    TempDir fq("fork_q");
    TempDir fc("fork_c");
    auto forkCfg = quickConfig(fq.path, fc.path);
    forkCfg.slots = 2;
    WorkerStats fws;
    const std::string forkCsv = drainToCsv(m, forkCfg, &fws);
    EXPECT_EQ(fws.completed, 4u);
    EXPECT_EQ(fws.fromCache, 0u);

    // Threaded drain, 2 pool threads, fresh queue + cache (no shared
    // cache: every payload must be recomputed, so the comparison
    // proves determinism, not cache plumbing).
    TempDir tq("thr_q");
    TempDir tc("thr_c");
    auto thrCfg = quickConfig(tq.path, tc.path);
    thrCfg.threads = 2;
    WorkerStats tws;
    const std::string thrCsv = drainToCsv(m, thrCfg, &tws);
    EXPECT_EQ(tws.completed, 4u);
    EXPECT_EQ(tws.fromCache, 0u);
    EXPECT_EQ(tws.failed, 0u);

    EXPECT_EQ(refCsv.str(), forkCsv);
    EXPECT_EQ(refCsv.str(), thrCsv);
}

TEST(WorkerPool, InThreadSimErrorQuarantinesOnlyItsJob)
{
    CampaignManifest m = tinyManifest({0.0});

    TempDir tq("poison_q");
    auto cfg = quickConfig(tq.path, "");
    cfg.threads = 2;
    SweepService svc(cfg);
    // A permanent, deterministic failure in one job body: the
    // exception unwinds inside a worker thread, is mapped to the
    // SimError exit code and quarantines just that job — the pool
    // (and the baselines running beside it) keeps draining.
    svc.setAttemptHook([](const std::string &id, unsigned) {
        if (id.rfind("soe:", 0) == 0)
            raiseError<InputError>("injected poison");
    });
    svc.enqueueCampaign(m);
    auto ws = svc.serve();
    EXPECT_EQ(ws.completed, 2u); // the baselines
    EXPECT_EQ(ws.failed, 1u);

    auto agg = svc.aggregate();
    EXPECT_FALSE(agg.complete());
    ASSERT_EQ(agg.missing.size(), 1u);
    // Identical failure record to fork mode: class "input" after
    // one attempt (permanent failures are not retried).
    EXPECT_EQ(agg.missing[0].reason, "input after 1 attempt(s)");
}

TEST(WorkerPool, TransientFailureEscalatesToForkAndStaysIdentical)
{
    CampaignManifest m = tinyManifest({0.0});

    // Attempt 1 of the SOE cell trips a transient failure; the
    // retry must run in the fork phase (the pool claims pristine
    // jobs only) with the attempt-2 jittered seed — exactly what a
    // pure fork-per-job drain does, so the CSVs must match.
    auto hook = [](const std::string &id, unsigned attempt) {
        if (id.rfind("soe:", 0) == 0 && attempt == 1)
            raiseError<WatchdogTimeout>("injected livelock");
    };

    TempDir fq("esc_fork_q");
    auto forkCfg = quickConfig(fq.path, "");
    std::string forkCsv;
    {
        SweepService svc(forkCfg);
        svc.setAttemptHook(hook);
        svc.enqueueCampaign(m);
        auto ws = svc.serve();
        EXPECT_EQ(ws.completed, 3u);
        EXPECT_EQ(ws.failed, 1u);
        auto agg = svc.aggregate();
        ASSERT_TRUE(agg.complete());
        std::ostringstream csv;
        writeCampaignCsv(csv, agg);
        forkCsv = csv.str();
    }

    TempDir tq("esc_thr_q");
    auto thrCfg = quickConfig(tq.path, "");
    thrCfg.threads = 2;
    {
        SweepService svc(thrCfg);
        svc.setAttemptHook(hook);
        svc.enqueueCampaign(m);
        auto ws = svc.serve();
        EXPECT_EQ(ws.completed, 3u);
        EXPECT_EQ(ws.failed, 1u); // committed in-thread, retried forked
        auto agg = svc.aggregate();
        ASSERT_TRUE(agg.complete());
        std::ostringstream csv;
        writeCampaignCsv(csv, agg);
        EXPECT_EQ(forkCsv, csv.str());
    }
}

namespace
{
volatile std::sig_atomic_t gPoolStop = 0;
} // namespace

TEST(WorkerPool, GracefulStopReleasesUnstartedClaimsUnconsumed)
{
    CampaignManifest m = tinyManifest({0.0}); // 3 jobs

    TempDir tq("stop_q");
    TempDir tc("stop_c");
    auto cfg = quickConfig(tq.path, tc.path);
    cfg.threads = 1;
    gPoolStop = 0;
    cfg.stopFlag = &gPoolStop;

    {
        SweepService svc(cfg);
        // SIGTERM lands while the first job simulates: that job
        // finishes (threads cannot be killed safely), and the pool
        // claims nothing more — the other jobs stay un-consumed.
        svc.setAttemptHook([](const std::string &, unsigned) {
            gPoolStop = 1;
        });
        svc.enqueueCampaign(m);
        auto ws = svc.serve();
        EXPECT_TRUE(ws.stopped);
        EXPECT_EQ(ws.completed, 1u);
    }

    // Resume with the flag cleared: the remaining jobs run at
    // attempt 1 (same seed), so the final CSV is byte-identical to
    // the serial reference — the stop consumed nothing.
    gPoolStop = 0;
    {
        SweepService svc(cfg);
        auto ws = svc.serve();
        EXPECT_FALSE(ws.stopped);
        EXPECT_EQ(ws.completed, 2u);

        auto agg = svc.aggregate();
        ASSERT_TRUE(agg.complete());
        std::ostringstream csv;
        writeCampaignCsv(csv, agg);

        EvaluationSweep sweep(MachineConfig::benchDefault(), m.rc);
        std::vector<PairResult> ref = {
            sweep.runPair("gcc", "eon", m.levels)};
        std::ostringstream refCsv;
        writePairResultsCsv(refCsv, ref);
        EXPECT_EQ(refCsv.str(), csv.str());
    }
}
