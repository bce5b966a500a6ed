/**
 * @file
 * Sweep-service tests: the durable job queue (lease claiming,
 * expiry reclamation, retry backoff, poison-job quarantine,
 * re-admission, admission control, torn-tail recovery and
 * corruption detection), the verified content-addressed result
 * cache, the serve loop's process supervision (crash isolation,
 * deadlines, permanent-vs-transient classification, retries), and
 * the end-to-end golden guarantee that a service-drained campaign
 * reproduces the in-process sweep's CSV byte for byte — including
 * when served entirely from the result cache or resumed.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

#include "harness/job_exit.hh"
#include "harness/jsonl.hh"
#include "harness/machine_config.hh"
#include "harness/service/queue.hh"
#include "harness/service/result_cache.hh"
#include "harness/service/service.hh"
#include "harness/sweep.hh"
#include "sim/errors.hh"
#include "sim/random.hh"

using namespace soefair;
using namespace soefair::harness;
using namespace soefair::harness::service;

namespace
{

struct TempDir
{
    explicit TempDir(const char *name)
        : path(std::string("/tmp/soefair_svc_") + name + "_" +
               std::to_string(::getpid()))
    {
        std::filesystem::remove_all(path);
    }
    ~TempDir() { std::filesystem::remove_all(path); }
    std::string path;
};

QueueJob
mkJob(const std::string &id, std::uint64_t seed = 7)
{
    QueueJob j;
    j.id = id;
    j.fingerprint = "fp-" + id;
    j.seed = seed;
    return j;
}

QueueConfig
quickQueueConfig()
{
    QueueConfig qc;
    qc.maxAttempts = 3;
    qc.backoffBaseSeconds = 0.0; // no backoff gating unless a test
                                 // opts in
    return qc;
}

} // namespace

TEST(JobQueue, EnqueueClaimCompleteDrain)
{
    TempDir td("basic");
    JobQueue q;
    q.open(td.path, "key1", quickQueueConfig());

    EXPECT_EQ(q.enqueue(mkJob("a")), EnqueueResult::Added);
    EXPECT_EQ(q.enqueue(mkJob("b")), EnqueueResult::Added);
    EXPECT_EQ(q.enqueue(mkJob("a")), EnqueueResult::Duplicate);
    EXPECT_EQ(q.openJobs(), 2u);
    EXPECT_FALSE(q.drained());

    LeaseClaim c;
    ASSERT_TRUE(q.claim("w0", 1000, 60.0, c));
    EXPECT_EQ(c.job.id, "a"); // enqueue order
    EXPECT_EQ(c.attempt, 1u);
    EXPECT_TRUE(q.complete(c, "payload-a"));

    ASSERT_TRUE(q.claim("w0", 1000, 60.0, c));
    EXPECT_EQ(c.job.id, "b");
    EXPECT_TRUE(q.complete(c, "payload-b"));

    EXPECT_FALSE(q.claim("w0", 1000, 60.0, c));
    EXPECT_TRUE(q.drained());

    auto snap = q.snapshot();
    EXPECT_EQ(snap.at("a").phase, JobPhase::Done);
    EXPECT_EQ(snap.at("a").payload, "payload-a");
    EXPECT_EQ(snap.at("a").doneAttempt, 1u);
    EXPECT_EQ(snap.at("b").payload, "payload-b");
}

TEST(JobQueue, LeaseExpiryReclaimsAtTheSameAttempt)
{
    TempDir td("expiry");
    JobQueue q;
    q.open(td.path, "key1", quickQueueConfig());
    q.enqueue(mkJob("a"));

    LeaseClaim c1;
    ASSERT_TRUE(q.claim("w1", 1000, 10.0, c1));
    EXPECT_EQ(c1.attempt, 1u);

    // Before expiry nothing is claimable; the lease holds.
    LeaseClaim c2;
    EXPECT_FALSE(q.hasClaimable(1005));
    EXPECT_FALSE(q.claim("w2", 1005, 10.0, c2));

    // Past expiry the job is reclaimed — at the SAME attempt number
    // (a crashed worker consumed no attempt), so the retry runs the
    // same seed and a resumed campaign stays byte-identical.
    ASSERT_TRUE(q.claim("w2", 1011, 10.0, c2));
    EXPECT_EQ(c2.attempt, 1u);
    EXPECT_EQ(c2.worker, "w2");

    // The old worker's lease is dead: heartbeat and complete are
    // refused, and its late result is discarded.
    EXPECT_FALSE(q.heartbeat(c1, 1012, 10.0));
    EXPECT_FALSE(q.complete(c1, "stale"));

    EXPECT_TRUE(q.complete(c2, "fresh"));
    EXPECT_EQ(q.snapshot().at("a").payload, "fresh");
    EXPECT_EQ(q.snapshot().at("a").leaseLosses, 1u);
}

TEST(JobQueue, HeartbeatExtendsTheLease)
{
    TempDir td("heartbeat");
    JobQueue q;
    q.open(td.path, "key1", quickQueueConfig());
    q.enqueue(mkJob("a"));

    LeaseClaim c;
    ASSERT_TRUE(q.claim("w1", 1000, 10.0, c));
    EXPECT_TRUE(q.heartbeat(c, 1008, 10.0)); // expiry -> 1018

    LeaseClaim other;
    EXPECT_FALSE(q.claim("w2", 1011, 10.0, other));
    ASSERT_TRUE(q.claim("w2", 1019, 10.0, other));
    EXPECT_EQ(other.attempt, 1u);
}

TEST(JobQueue, ClaimPristineOnlySkipsRetriesAndLeaseLosses)
{
    TempDir td("pristine");
    JobQueue q;
    q.open(td.path, "key1", quickQueueConfig());
    q.enqueue(mkJob("a"));
    q.enqueue(mkJob("b"));
    q.enqueue(mkJob("c"));

    // `a` carries a committed transient failure; `b` loses a lease
    // (claimed with a short expiry and never renewed).
    LeaseClaim a;
    LeaseClaim b;
    ASSERT_TRUE(q.claim("w0", 1000, 10.0, a));
    ASSERT_TRUE(q.claim("w0", 1000, 10.0, b));
    ASSERT_EQ(a.job.id, "a");
    ASSERT_EQ(b.job.id, "b");
    ASSERT_TRUE(q.fail(a, "watchdog", "injected", true, 1000));

    // Past b's expiry, a pristine-only claim reclaims the lease (the
    // loss is recorded) but hands out neither retry: only the
    // untouched `c` is pool-eligible. Retries and reclaimed jobs
    // belong to the crash-isolated fork path.
    LeaseClaim c;
    ASSERT_TRUE(q.claim("pool", 1011, 60.0, c, /*pristine_only=*/true));
    EXPECT_EQ(c.job.id, "c");
    EXPECT_EQ(q.snapshot().at("b").leaseLosses, 1u);
    LeaseClaim none;
    EXPECT_FALSE(
        q.claim("pool", 1011, 60.0, none, /*pristine_only=*/true));

    // A regular claim still sees both leftovers, attempts pinned by
    // their history: the committed failure advanced `a`, the lease
    // loss did not advance `b`.
    LeaseClaim ra;
    LeaseClaim rb;
    ASSERT_TRUE(q.claim("forker", 1012, 60.0, ra));
    ASSERT_TRUE(q.claim("forker", 1012, 60.0, rb));
    EXPECT_EQ(ra.job.id, "a");
    EXPECT_EQ(ra.attempt, 2u);
    EXPECT_EQ(rb.job.id, "b");
    EXPECT_EQ(rb.attempt, 1u);
}

TEST(JobQueue, RenewBatchRenewsOwnedAndReportsLost)
{
    TempDir td("renewbatch");
    JobQueue q;
    q.open(td.path, "key1", quickQueueConfig());
    q.enqueue(mkJob("a"));
    q.enqueue(mkJob("b"));

    std::vector<LeaseClaim> batch(2);
    ASSERT_TRUE(q.claim("w0", 1000, 10.0, batch[0]));
    ASSERT_TRUE(q.claim("w0", 1000, 10.0, batch[1]));

    // `a` expires and another worker reclaims it; `b` stays owned.
    ASSERT_TRUE(q.heartbeat(batch[1], 1005, 10.0));
    LeaseClaim thief;
    ASSERT_TRUE(q.claim("w1", 1011, 60.0, thief));
    ASSERT_EQ(thief.job.id, "a");

    const std::vector<bool> owned = q.renewBatch(batch, 1012, 10.0);
    ASSERT_EQ(owned.size(), 2u);
    EXPECT_FALSE(owned[0]); // lost to w1
    EXPECT_TRUE(owned[1]);
    // The renewal extended b's expiry in place (1012 + 10).
    EXPECT_EQ(batch[1].expiry, 1022);
    LeaseClaim c;
    EXPECT_FALSE(q.claim("w2", 1021, 10.0, c));

    // The lost claim cannot commit; the renewed one can.
    EXPECT_FALSE(q.complete(batch[0], "stale"));
    EXPECT_TRUE(q.complete(batch[1], "pb"));
}

TEST(JobQueue, FailedAttemptsAdvanceAndBackOff)
{
    TempDir td("backoff");
    auto qc = quickQueueConfig();
    qc.backoffBaseSeconds = 2.0;
    JobQueue q;
    q.open(td.path, "key1", qc);
    q.enqueue(mkJob("a"));

    LeaseClaim c;
    ASSERT_TRUE(q.claim("w0", 1000, 60.0, c));
    ASSERT_TRUE(q.fail(c, "watchdog", "injected", /*transient=*/true,
                       1000));

    // Retry 1 backs off base * 2^0 = 2 s from the failure.
    EXPECT_FALSE(q.claim("w0", 1001, 60.0, c));
    ASSERT_TRUE(q.claim("w0", 1002, 60.0, c));
    EXPECT_EQ(c.attempt, 2u); // committed failure advanced it

    ASSERT_TRUE(q.fail(c, "watchdog", "injected", true, 1002));
    // Retry 2 backs off 4 s.
    EXPECT_FALSE(q.claim("w0", 1005, 60.0, c));
    ASSERT_TRUE(q.claim("w0", 1006, 60.0, c));
    EXPECT_EQ(c.attempt, 3u);
    EXPECT_TRUE(q.complete(c, "eventually"));
    EXPECT_EQ(q.snapshot().at("a").doneAttempt, 3u);
}

TEST(JobQueue, TransientFailuresQuarantineAfterMaxAttempts)
{
    TempDir td("quarantine");
    auto qc = quickQueueConfig();
    qc.maxAttempts = 2;
    JobQueue q;
    q.open(td.path, "key1", qc);
    q.enqueue(mkJob("a"));
    q.enqueue(mkJob("b"));

    LeaseClaim c;
    for (unsigned attempt = 1; attempt <= 2; ++attempt) {
        ASSERT_TRUE(q.claim("w0", 1000 + attempt, 60.0, c));
        ASSERT_EQ(c.job.id, "a");
        ASSERT_EQ(c.attempt, attempt);
        ASSERT_TRUE(
            q.fail(c, "watchdog", "injected", true, 1000 + attempt));
    }

    // Attempt budget exhausted: dead-lettered, never handed out
    // again, but the rest of the queue still drains.
    auto snap = q.snapshot();
    EXPECT_EQ(snap.at("a").phase, JobPhase::Quarantined);
    EXPECT_EQ(snap.at("a").failClass, "watchdog");
    EXPECT_EQ(snap.at("a").failedAttempts, 2u);

    ASSERT_TRUE(q.claim("w0", 2000, 60.0, c));
    EXPECT_EQ(c.job.id, "b");
    EXPECT_TRUE(q.complete(c, "p"));
    EXPECT_TRUE(q.drained());
}

TEST(JobQueue, PermanentFailureQuarantinesImmediately)
{
    TempDir td("permanent");
    JobQueue q;
    q.open(td.path, "key1", quickQueueConfig());
    q.enqueue(mkJob("a"));

    LeaseClaim c;
    ASSERT_TRUE(q.claim("w0", 1000, 60.0, c));
    ASSERT_TRUE(
        q.fail(c, "input", "bad trace", /*transient=*/false, 1000));
    auto snap = q.snapshot();
    EXPECT_EQ(snap.at("a").phase, JobPhase::Quarantined);
    EXPECT_EQ(snap.at("a").failClass, "input");
    EXPECT_TRUE(q.drained());
}

TEST(JobQueue, PoisonJobQuarantinedAfterRepeatedLeaseLosses)
{
    TempDir td("poison");
    auto qc = quickQueueConfig();
    qc.maxAttempts = 2;
    JobQueue q;
    q.open(td.path, "key1", qc);
    q.enqueue(mkJob("a"));

    // A poison job kills its worker every time: the worker never
    // commits a failure record, the lease just expires. After
    // maxAttempts losses the job must be quarantined, not handed
    // out forever.
    LeaseClaim c;
    ASSERT_TRUE(q.claim("w0", 1000, 10.0, c));
    ASSERT_TRUE(q.claim("w1", 1011, 10.0, c)); // loss 1, reclaim
    EXPECT_FALSE(q.claim("w2", 1022, 10.0, c)); // loss 2 -> dead
    auto snap = q.snapshot();
    EXPECT_EQ(snap.at("a").phase, JobPhase::Quarantined);
    EXPECT_EQ(snap.at("a").failClass, "lease-expired");
    EXPECT_EQ(snap.at("a").leaseLosses, 2u);
    EXPECT_TRUE(q.drained());
}

TEST(JobQueue, ReadmitReturnsQuarantinedJobsToAttemptOne)
{
    TempDir td("readmit");
    auto qc = quickQueueConfig();
    qc.maxAttempts = 1;
    {
        JobQueue q;
        q.open(td.path, "key1", qc);
        q.enqueue(mkJob("a"));
        q.enqueue(mkJob("b"));
        q.enqueue(mkJob("c"));

        // `a` exhausts its attempts, `b` is presumed poison after a
        // lost lease, `c` completes.
        LeaseClaim a;
        LeaseClaim b;
        LeaseClaim c;
        ASSERT_TRUE(q.claim("w0", 1000, 10.0, a));
        ASSERT_TRUE(q.fail(a, "watchdog", "injected", true, 1000));
        ASSERT_TRUE(q.claim("w0", 1000, 10.0, b));
        ASSERT_TRUE(q.claim("w0", 1000, 10.0, c));
        ASSERT_TRUE(q.complete(c, "pc"));
        LeaseClaim none;
        EXPECT_FALSE(q.claim("w1", 1011, 10.0, none));
        ASSERT_TRUE(q.drained());

        EXPECT_EQ(q.readmitQuarantined(), 2u);
        EXPECT_FALSE(q.drained());
    }

    // The readmit records are durable: a fresh open replays them.
    JobQueue q;
    q.open(td.path, "key1", qc);
    auto snap = q.snapshot();
    for (const char *id : {"a", "b"}) {
        EXPECT_EQ(snap.at(id).phase, JobPhase::Pending) << id;
        EXPECT_EQ(snap.at(id).failedAttempts, 0u) << id;
        EXPECT_EQ(snap.at(id).leaseLosses, 0u) << id;
        EXPECT_TRUE(snap.at(id).failClass.empty()) << id;
    }
    EXPECT_EQ(snap.at("c").phase, JobPhase::Done);
    EXPECT_EQ(q.readmitQuarantined(), 0u);

    // Both rerun from attempt 1, at the base seed.
    LeaseClaim a;
    LeaseClaim b;
    ASSERT_TRUE(q.claim("w2", 1012, 10.0, a));
    ASSERT_TRUE(q.claim("w2", 1012, 10.0, b));
    EXPECT_EQ(a.job.id, "a");
    EXPECT_EQ(a.attempt, 1u);
    EXPECT_EQ(b.job.id, "b");
    EXPECT_EQ(b.attempt, 1u);
}

TEST(JobQueue, ReleaseReturnsTheJobUnconsumed)
{
    TempDir td("release");
    JobQueue q;
    q.open(td.path, "key1", quickQueueConfig());
    q.enqueue(mkJob("a"));

    LeaseClaim c;
    ASSERT_TRUE(q.claim("w0", 1000, 60.0, c));
    q.release(c);

    // Graceful shutdown consumed neither an attempt nor a
    // lease-loss mark.
    ASSERT_TRUE(q.claim("w1", 1001, 60.0, c));
    EXPECT_EQ(c.attempt, 1u);
    EXPECT_EQ(q.snapshot().at("a").leaseLosses, 0u);
}

TEST(JobQueue, StatePersistsAcrossReopenAndProcesses)
{
    TempDir td("persist");
    {
        auto qc = quickQueueConfig();
        qc.segmentRecords = 3; // force several segment files
        JobQueue q;
        q.open(td.path, "key1", qc);
        for (int i = 0; i < 6; ++i)
            q.enqueue(mkJob("j" + std::to_string(i)));
        LeaseClaim c;
        ASSERT_TRUE(q.claim("w0", 1000, 60.0, c));
        ASSERT_TRUE(q.complete(c, "done-j0"));
    }

    // A second JobQueue (a different worker process in production)
    // replays the same state from the segments.
    JobQueue q2;
    q2.open(td.path, "key1", quickQueueConfig());
    auto snap = q2.snapshot();
    ASSERT_EQ(snap.size(), 6u);
    EXPECT_EQ(snap.at("j0").phase, JobPhase::Done);
    EXPECT_EQ(snap.at("j0").payload, "done-j0");
    EXPECT_EQ(snap.at("j1").phase, JobPhase::Pending);
    EXPECT_EQ(q2.openJobs(), 5u);

    EXPECT_TRUE(JobQueue::exists(td.path));
}

TEST(JobQueue, MismatchedKeyIsRejected)
{
    TempDir td("keycheck");
    {
        JobQueue q;
        q.open(td.path, "key1", quickQueueConfig());
        q.enqueue(mkJob("a"));
    }
    JobQueue q2;
    EXPECT_THROW(q2.open(td.path, "other-key", quickQueueConfig()),
                 CheckpointError);
}

TEST(JobQueue, TornTailIsTruncatedNotFatal)
{
    TempDir td("torntail");
    std::string seg;
    {
        JobQueue q;
        q.open(td.path, "key1", quickQueueConfig());
        q.enqueue(mkJob("a"));
        q.enqueue(mkJob("b"));
    }
    // Simulate a worker SIGKILLed mid-append: a partial record with
    // no terminating newline at the end of the last segment.
    seg = td.path + "/queue-000001.jsonl";
    {
        std::ofstream os(seg, std::ios::app | std::ios::binary);
        os << "{\"op\":\"lease\",\"job\":\"a\",\"wor";
    }

    JobQueue q;
    q.open(td.path, "key1", quickQueueConfig());
    auto snap = q.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    // The torn record was never acted on; dropping it loses nothing.
    EXPECT_EQ(snap.at("a").phase, JobPhase::Pending);

    // And the queue keeps working after the truncation.
    LeaseClaim c;
    ASSERT_TRUE(q.claim("w0", 1000, 60.0, c));
    EXPECT_TRUE(q.complete(c, "p"));
}

TEST(JobQueue, SilentCorruptionRaisesCheckpointError)
{
    TempDir td("corrupt");
    {
        JobQueue q;
        q.open(td.path, "key1", quickQueueConfig());
        q.enqueue(mkJob("a"));
        q.enqueue(mkJob("b"));
    }
    // Flip one byte inside a committed (newline-terminated) record:
    // a torn tail is forgivable, silent corruption is not.
    const std::string seg = td.path + "/queue-000001.jsonl";
    std::string data;
    {
        std::ifstream is(seg, std::ios::binary);
        std::ostringstream ss;
        ss << is.rdbuf();
        data = ss.str();
    }
    const auto pos = data.find("fp-a");
    ASSERT_NE(pos, std::string::npos);
    data[pos] = 'X';
    {
        std::ofstream os(seg, std::ios::binary | std::ios::trunc);
        os << data;
    }

    JobQueue q;
    EXPECT_THROW(q.open(td.path, "key1", quickQueueConfig()),
                 CheckpointError);
}

TEST(JobQueue, InconsistentRecordsRaiseCheckpointError)
{
    // Well-sealed records that contradict the queue's history are
    // corruption too: each one must raise on replay, never be
    // silently applied.
    auto rejects = [](const char *name,
                      const std::vector<std::string> &bare_lines,
                      bool replace_header) {
        TempDir td(name);
        {
            JobQueue q;
            q.open(td.path, "key1", quickQueueConfig());
            q.enqueue(mkJob("a"));
        }
        const std::string seg = td.path + "/queue-000001.jsonl";
        std::string data;
        {
            std::ifstream is(seg, std::ios::binary);
            std::ostringstream ss;
            ss << is.rdbuf();
            data = ss.str();
        }
        std::string records;
        for (const auto &bare : bare_lines)
            records += jsonlSealLine(bare) + "\n";
        // Replace the header by the records, or append them.
        if (replace_header)
            data = records + data.substr(data.find('\n') + 1);
        else
            data += records;
        {
            std::ofstream os(seg, std::ios::binary | std::ios::trunc);
            os << data;
        }
        JobQueue q;
        EXPECT_THROW(q.open(td.path, "key1", quickQueueConfig()),
                     CheckpointError)
            << name;
    };
    const std::string done =
        R"({"op":"done","job":"a","worker":"w","attempt":1,)"
        R"("payload":"p"})";
    rejects("dup_done", {done, done}, false);
    rejects("fail_after_done",
            {done, R"({"op":"failed","job":"a","worker":"w",)"
                   R"("attempt":1,"class":"input","detail":"d",)"
                   R"("t":1})"},
            false);
    rejects("unknown_job",
            {R"({"op":"release","job":"zz","worker":"w"})"}, false);
    rejects("unknown_op", {R"({"op":"bogus","job":"a"})"}, false);
    rejects("no_header", {}, true);
    rejects("bad_version",
            {R"({"queue":"soefair-queue","v":99,"seg":1,)"
             R"("key":"key1"})"},
            true);
}

TEST(JobQueue, EscapedPayloadSurvivesReplay)
{
    TempDir td("escape");
    const std::string payload =
        "quote \" backslash \\ newline \n tab \t end";
    {
        JobQueue q;
        q.open(td.path, "key1", quickQueueConfig());
        q.enqueue(mkJob("a"));
        LeaseClaim c;
        ASSERT_TRUE(q.claim("w0", 1000, 60.0, c));
        ASSERT_TRUE(q.complete(c, payload));
    }
    JobQueue q;
    q.open(td.path, "key1", quickQueueConfig());
    EXPECT_EQ(q.snapshot().at("a").payload, payload);
}

TEST(ResultCache, StoreLookupRoundtrip)
{
    TempDir td("cache");
    ResultCache cache;
    cache.open(td.path);

    std::string payload;
    EXPECT_FALSE(cache.lookup("fp1", 42, payload));
    EXPECT_EQ(cache.stats().misses, 1u);

    cache.store("fp1", 42, "result bytes\nwith lines");
    ASSERT_TRUE(cache.lookup("fp1", 42, payload));
    EXPECT_EQ(payload, "result bytes\nwith lines");
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().stores, 1u);

    // The key is (fingerprint, seed): either half misses alone.
    EXPECT_FALSE(cache.lookup("fp1", 43, payload));
    EXPECT_FALSE(cache.lookup("fp2", 42, payload));
}

TEST(ResultCache, EmptyPayloadRoundtrips)
{
    TempDir td("cache_empty");
    ResultCache cache;
    cache.open(td.path);
    cache.store("fp", 1, "");
    std::string payload = "sentinel";
    ASSERT_TRUE(cache.lookup("fp", 1, payload));
    EXPECT_TRUE(payload.empty());
}

TEST(ResultCache, CorruptEntryIsEvictedAndResimulated)
{
    TempDir td("cache_corrupt");
    ResultCache cache;
    cache.open(td.path);
    cache.store("fp1", 42, "good payload");

    // Flip a payload byte on disk: the checksum must catch it, the
    // entry must be evicted, and the caller re-simulates.
    const std::string path = cache.entryPath("fp1", 42);
    std::string data;
    {
        std::ifstream is(path, std::ios::binary);
        std::ostringstream ss;
        ss << is.rdbuf();
        data = ss.str();
    }
    data[data.size() - 3] ^= 0x20;
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << data;
    }

    std::string payload;
    EXPECT_FALSE(cache.lookup("fp1", 42, payload));
    EXPECT_EQ(cache.stats().corruptEvictions, 1u);
    EXPECT_FALSE(std::filesystem::exists(path));

    // A truncated entry is caught the same way.
    cache.store("fp1", 42, "good payload");
    std::filesystem::resize_file(cache.entryPath("fp1", 42), 20);
    EXPECT_FALSE(cache.lookup("fp1", 42, payload));
    EXPECT_EQ(cache.stats().corruptEvictions, 2u);

    // After eviction a fresh store serves again.
    cache.store("fp1", 42, "good payload");
    ASSERT_TRUE(cache.lookup("fp1", 42, payload));
    EXPECT_EQ(payload, "good payload");
}

namespace
{

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
tinyManifest()
{
    CampaignManifest m;
    m.pairs = {{"gcc", "eon"}};
    m.levels = {0.0, 0.5};
    m.rc = tinyRun();
    return m;
}

ServiceConfig
quickServiceConfig(const std::string &queue_dir,
                   const std::string &cache_dir)
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

} // namespace

TEST(SweepService, ManifestRoundtrips)
{
    TempDir td("manifest");
    std::filesystem::create_directory(td.path);
    CampaignManifest m = tinyManifest();
    writeManifest(td.path, m);
    CampaignManifest back = loadManifest(td.path);
    ASSERT_EQ(back.pairs.size(), 1u);
    EXPECT_EQ(back.pairs[0].first, "gcc");
    EXPECT_EQ(back.pairs[0].second, "eon");
    ASSERT_EQ(back.levels.size(), 2u);
    EXPECT_EQ(back.levels[1], 0.5);
    EXPECT_EQ(back.rc.measureInstrs, m.rc.measureInstrs);

    // The rebuilt campaign is configuration-identical.
    EXPECT_EQ(campaignFromManifest(back).journalKey(),
              campaignFromManifest(m).journalKey());

    // A flipped manifest byte is detected, not parsed.
    const std::string path = td.path + "/manifest.jsonl";
    std::string data;
    {
        std::ifstream is(path, std::ios::binary);
        std::ostringstream ss;
        ss << is.rdbuf();
        data = ss.str();
    }
    const auto pos = data.find("gcc");
    ASSERT_NE(pos, std::string::npos);
    data[pos] = 'x';
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << data;
    }
    EXPECT_THROW(loadManifest(td.path), CheckpointError);
}

TEST(SweepService, DrainMatchesInProcessSweepAndCacheServesRerun)
{
    const CampaignManifest m = tinyManifest();

    // In-process reference (the pre-service sweep path).
    EvaluationSweep sweep(MachineConfig::benchDefault(), m.rc);
    std::vector<PairResult> ref = {
        sweep.runPair("gcc", "eon", m.levels)};
    std::ostringstream refCsv;
    writePairResultsCsv(refCsv, ref);

    TempDir queue("e2e_q");
    TempDir cache("e2e_c");
    {
        SweepService svc(quickServiceConfig(queue.path, cache.path));
        auto eq = svc.enqueueCampaign(m);
        EXPECT_EQ(eq.added, 4u); // 2 baselines + 2 SOE cells
        auto ws = svc.serve();
        EXPECT_EQ(ws.completed, 4u);
        EXPECT_EQ(ws.fromCache, 0u);
        EXPECT_EQ(ws.failed, 0u);

        auto agg = svc.aggregate();
        ASSERT_TRUE(agg.complete());
        std::ostringstream csv;
        writeCampaignCsv(csv, agg);
        EXPECT_EQ(refCsv.str(), csv.str());
    }

    // A second, identical campaign in a fresh queue must be served
    // entirely from the content-addressed cache — and still produce
    // byte-identical CSV.
    TempDir queue2("e2e_q2");
    {
        SweepService svc(quickServiceConfig(queue2.path, cache.path));
        svc.enqueueCampaign(m);
        auto ws = svc.serve();
        EXPECT_EQ(ws.completed, 4u);
        EXPECT_EQ(ws.fromCache, 4u);

        auto agg = svc.aggregate();
        ASSERT_TRUE(agg.complete());
        std::ostringstream csv;
        writeCampaignCsv(csv, agg);
        EXPECT_EQ(refCsv.str(), csv.str());
    }
}

TEST(SweepService, QuarantinedJobSurfacesAsExplicitMissingCell)
{
    CampaignManifest m = tinyManifest();
    m.levels = {0.0};

    TempDir queue("missing_q");
    auto cfg = quickServiceConfig(queue.path, "");
    SweepService svc(cfg);
    svc.setAttemptHook([](const std::string &id, unsigned) {
        if (id.rfind("soe:", 0) == 0)
            raiseError<InputError>("injected");
    });
    svc.enqueueCampaign(m);
    auto ws = svc.serve();
    EXPECT_EQ(ws.completed, 2u); // the baselines
    EXPECT_EQ(ws.failed, 1u);

    auto agg = svc.aggregate();
    EXPECT_FALSE(agg.complete());
    ASSERT_EQ(agg.missing.size(), 1u);
    EXPECT_EQ(agg.missing[0].pair, "gcc:eon");
    EXPECT_EQ(agg.missing[0].what, "F=0");
    EXPECT_EQ(agg.missing[0].reason, "input after 1 attempt(s)");
    EXPECT_EQ(agg.exitCode(), exitCampaignFailed);

    std::ostringstream csv;
    writeCampaignCsv(csv, agg);
    EXPECT_NE(csv.str().find(
                  "MISSING(gcc:eon,F=0,input after 1 attempt(s))"),
              std::string::npos);
}

TEST(SweepService, StopFlagDrainsGracefullyAndResumeFinishes)
{
    CampaignManifest m = tinyManifest();
    m.levels = {0.0};

    TempDir queue("stop_q");
    TempDir cache("stop_c");

    // A pre-set stop flag: the worker shuts down before claiming
    // anything — every job stays pending at attempt 1.
    static volatile std::sig_atomic_t stop = 1;
    auto cfg = quickServiceConfig(queue.path, cache.path);
    cfg.stopFlag = &stop;
    {
        SweepService svc(cfg);
        svc.enqueueCampaign(m);
        auto ws = svc.serve();
        EXPECT_TRUE(ws.stopped);
        EXPECT_EQ(ws.completed, 0u);
    }
    {
        // Aggregating a stopped campaign reports the gaps instead of
        // silently dropping cells.
        SweepService svc(cfg);
        auto agg = svc.aggregate();
        EXPECT_FALSE(agg.complete());
        EXPECT_EQ(agg.missing.size(), 3u); // 2 ST + 1 SOE cell
    }

    // Clearing the flag and serving again finishes the campaign.
    stop = 0;
    SweepService svc(cfg);
    auto ws = svc.serve();
    EXPECT_FALSE(ws.stopped);
    EXPECT_EQ(ws.completed, 3u);
    auto agg = svc.aggregate();
    EXPECT_TRUE(agg.complete());
}

// --- Process supervision by the serve loop ------------------------
//
// SweepService::serve is the campaign's only fork loop, and so its
// process supervisor (hence the suite name): every job attempt runs
// in a forked child under a wall-clock deadline, its exit is
// classified against the SimError taxonomy (harness/job_exit.hh),
// and transient failures retry with backoff. These tests drive real
// campaign jobs and provoke each failure mode through the attempt
// hook, which runs inside the forked child.

namespace
{

/** Cells small enough that a healthy job takes well under 0.1 s in
 *  an optimised build, far below the deadlines below even under
 *  sanitizers. (gcc:eon at F=0 starves one thread and runs ~40x
 *  longer, so it is avoided here.) */
CampaignManifest
microManifest(std::vector<double> levels = {0.5})
{
    CampaignManifest m;
    m.pairs = {{"mcf", "art"}};
    m.levels = std::move(levels);
    m.rc.warmupInstrs = 2000;
    m.rc.timingWarmInstrs = 1000;
    m.rc.measureInstrs = 2000;
    return m;
}

ServiceConfig
supervisedConfig(const std::string &queue_dir)
{
    ServiceConfig cfg = quickServiceConfig(queue_dir, "");
    cfg.deadlineSeconds = 30.0;
    cfg.maxAttempts = 3;
    return cfg;
}

/** Enqueue + serve one campaign; the queue's final job states. */
std::map<std::string, JobStatus>
superviseCampaign(const CampaignManifest &m, const ServiceConfig &cfg,
                  std::function<void(const std::string &, unsigned)>
                      hook,
                  WorkerStats *stats_out = nullptr)
{
    SweepService svc(cfg);
    svc.setAttemptHook(std::move(hook));
    svc.enqueueCampaign(m);
    const WorkerStats ws = svc.serve();
    if (stats_out)
        *stats_out = ws;
    JobQueue q;
    q.open(cfg.queueDir, campaignFromManifest(m).journalKey(),
           QueueConfig{});
    return q.snapshot();
}

std::string
campaignCsv(SweepService &svc)
{
    std::ostringstream csv;
    writeCampaignCsv(csv, svc.aggregate());
    return csv.str();
}

bool
isSoeJob(const std::string &id)
{
    return id.rfind("soe:", 0) == 0;
}

const char *const microSoeJob = "soe:mcf:art:F=0.5";

/** Runs in the forked child: block until the deadline SIGKILL. */
[[noreturn]] void
sleepForever()
{
    struct timespec ts = {1, 0};
    for (;;)
        nanosleep(&ts, nullptr);
}

} // namespace

TEST(Supervisor, AllJobsSucceed)
{
    TempDir q("sup_ok");
    WorkerStats ws;
    const auto snap =
        superviseCampaign(microManifest(), supervisedConfig(q.path),
                          nullptr, &ws);
    EXPECT_EQ(ws.completed, 3u);
    EXPECT_EQ(ws.failed, 0u);
    ASSERT_EQ(snap.size(), 3u);
    for (const auto &[id, js] : snap) {
        EXPECT_EQ(js.phase, JobPhase::Done) << id;
        EXPECT_EQ(js.doneAttempt, 1u) << id;
        EXPECT_FALSE(js.payload.empty()) << id;
    }
}

TEST(Supervisor, PermanentInputErrorFailsFastWithoutRetry)
{
    TempDir q("sup_input");
    WorkerStats ws;
    const auto snap = superviseCampaign(
        microManifest(), supervisedConfig(q.path),
        [](const std::string &id, unsigned) {
            if (isSoeJob(id))
                raiseError<InputError>("injected");
        },
        &ws);
    const JobStatus &bad = snap.at(microSoeJob);
    EXPECT_EQ(bad.phase, JobPhase::Quarantined);
    EXPECT_EQ(bad.failClass, "input");
    EXPECT_EQ(bad.failDetail, "exit code 10");
    EXPECT_EQ(bad.failedAttempts, 1u);
    // The campaign continued past the failure.
    EXPECT_EQ(ws.completed, 2u);
    EXPECT_EQ(ws.failed, 1u);
}

TEST(Supervisor, TransientFailureRetriesThenSucceeds)
{
    TempDir q("sup_flaky");
    WorkerStats ws;
    const auto snap = superviseCampaign(
        microManifest(), supervisedConfig(q.path),
        [](const std::string &id, unsigned attempt) {
            if (isSoeJob(id) && attempt < 2)
                raiseError<WatchdogTimeout>("injected livelock");
        },
        &ws);
    const JobStatus &flaky = snap.at(microSoeJob);
    EXPECT_EQ(flaky.phase, JobPhase::Done);
    EXPECT_EQ(flaky.doneAttempt, 2u);
    EXPECT_EQ(flaky.failedAttempts, 1u);
    EXPECT_EQ(flaky.failClass, "watchdog");
    EXPECT_EQ(ws.completed, 3u);
    EXPECT_EQ(ws.failed, 1u);
}

TEST(Supervisor, SignalDeathIsRetriedThenRecordedAsFailed)
{
    TempDir q("sup_signal");
    auto cfg = supervisedConfig(q.path);
    cfg.maxAttempts = 2;
    // SIGKILL rather than SIGSEGV: sanitizer runtimes intercept
    // SIGSEGV and may turn it into an exit code.
    const auto snap = superviseCampaign(
        microManifest(), cfg, [](const std::string &id, unsigned) {
            if (isSoeJob(id))
                raise(SIGKILL);
        });
    const JobStatus &crasher = snap.at(microSoeJob);
    EXPECT_EQ(crasher.phase, JobPhase::Quarantined);
    EXPECT_EQ(crasher.failClass, "signal");
    EXPECT_EQ(crasher.failDetail, "signal 9");
    EXPECT_EQ(crasher.failedAttempts, 2u);
    for (const auto &[id, js] : snap) {
        if (!isSoeJob(id)) {
            EXPECT_EQ(js.phase, JobPhase::Done) << id;
        }
    }
}

TEST(Supervisor, HangingJobIsKilledAtTheDeadline)
{
    TempDir q("sup_hang");
    auto cfg = supervisedConfig(q.path);
    cfg.deadlineSeconds = 3.0;
    cfg.maxAttempts = 2;
    const auto snap = superviseCampaign(
        microManifest(), cfg, [](const std::string &id, unsigned) {
            if (isSoeJob(id))
                sleepForever();
        });
    const JobStatus &hung = snap.at(microSoeJob);
    EXPECT_EQ(hung.phase, JobPhase::Quarantined);
    EXPECT_EQ(hung.failClass, "deadline");
    EXPECT_EQ(hung.failedAttempts, 2u);
    for (const auto &[id, js] : snap) {
        if (!isSoeJob(id)) {
            EXPECT_EQ(js.phase, JobPhase::Done) << id;
        }
    }
}

TEST(Supervisor, ParallelSlotsCompleteEveryJob)
{
    CampaignManifest m = microManifest({0.5, 1.0});
    m.pairs = {{"gcc", "eon"}, {"mcf", "art"}}; // 4 ST + 4 SOE jobs

    TempDir serialQ("sup_serial");
    TempDir slotsQ("sup_slots");
    auto slotsCfg = supervisedConfig(slotsQ.path);
    slotsCfg.slots = 3;

    WorkerStats ws;
    superviseCampaign(m, slotsCfg, nullptr, &ws);
    EXPECT_EQ(ws.completed, 8u);
    superviseCampaign(m, supervisedConfig(serialQ.path), nullptr);

    SweepService slots(slotsCfg);
    SweepService serial(supervisedConfig(serialQ.path));
    const std::string csv = campaignCsv(slots);
    EXPECT_EQ(csv, campaignCsv(serial));
    EXPECT_EQ(csv.find("MISSING"), std::string::npos);
}

TEST(Supervisor, ThreadedFirstAttemptsEscalateRetriesToFork)
{
    TempDir q("sup_escalate");
    auto cfg = supervisedConfig(q.path);
    cfg.threads = 2;
    // With threads, attempt 1 runs on a pool thread in THIS process;
    // only the retry of a transient failure pays for a forked child.
    // A hook that sees the wrong process fails the job permanently.
    const pid_t parent = getpid();
    WorkerStats ws;
    const auto snap = superviseCampaign(
        microManifest(), cfg,
        [parent](const std::string &id, unsigned attempt) {
            const bool inParent = getpid() == parent;
            if (attempt == 1 && !inParent)
                raiseError<InputError>("attempt 1 was forked");
            if (attempt > 1 && inParent)
                raiseError<InputError>("retry ran in-process");
            if (isSoeJob(id) && attempt == 1)
                raiseError<WatchdogTimeout>("injected");
        },
        &ws);
    EXPECT_EQ(ws.completed, 3u);
    EXPECT_EQ(ws.failed, 1u);
    EXPECT_EQ(snap.at(microSoeJob).phase, JobPhase::Done);
    EXPECT_EQ(snap.at(microSoeJob).doneAttempt, 2u);
    for (const auto &[id, js] : snap) {
        if (!isSoeJob(id)) {
            EXPECT_EQ(js.doneAttempt, 1u) << id;
        }
    }
}

TEST(Supervisor, ThreadedSimErrorFailureRecordMatchesForkMode)
{
    auto hook = [](const std::string &id, unsigned) {
        if (isSoeJob(id))
            raiseError<InputError>("injected");
    };
    TempDir forkQ("sup_rec_fork");
    TempDir thrQ("sup_rec_thr");
    auto thrCfg = supervisedConfig(thrQ.path);
    thrCfg.threads = 2;
    const auto forked = superviseCampaign(
        microManifest(), supervisedConfig(forkQ.path), hook);
    const auto threaded =
        superviseCampaign(microManifest(), thrCfg, hook);

    // The pool thread and the forked child share runJobBody and
    // classifyExitCode: identical class, detail and attempt count.
    const JobStatus &f = forked.at(microSoeJob);
    const JobStatus &t = threaded.at(microSoeJob);
    EXPECT_EQ(t.phase, JobPhase::Quarantined);
    EXPECT_EQ(t.failClass, f.failClass);
    EXPECT_EQ(t.failDetail, f.failDetail);
    EXPECT_EQ(t.failDetail, "exit code 10");
    EXPECT_EQ(t.failedAttempts, f.failedAttempts);

    SweepService forkSvc(supervisedConfig(forkQ.path));
    SweepService thrSvc(thrCfg);
    EXPECT_EQ(campaignCsv(forkSvc), campaignCsv(thrSvc));
}

TEST(Supervisor, BackoffScheduleIsPinned)
{
    // The queue delays the retry after transient failure k by
    // base * 2^(k-1) seconds. Pinned so a change is a conscious
    // decision, not an accident.
    EXPECT_DOUBLE_EQ(backoffSeconds(0.25, 0), 0.0);
    EXPECT_DOUBLE_EQ(backoffSeconds(0.25, 1), 0.25);
    EXPECT_DOUBLE_EQ(backoffSeconds(0.25, 2), 0.5);
    EXPECT_DOUBLE_EQ(backoffSeconds(0.25, 3), 1.0);
    EXPECT_DOUBLE_EQ(backoffSeconds(0.25, 4), 2.0);
    EXPECT_DOUBLE_EQ(backoffSeconds(1.0, 3), 4.0);
    // Huge attempt counts saturate instead of overflowing.
    EXPECT_GT(backoffSeconds(1.0, 200), 0.0);
}

TEST(Supervisor, AttemptSeedReseedingIsPinned)
{
    // Jittered reseeding is part of the resume/replay determinism
    // contract: attempt 1 runs the base seed, attempt k >= 2 runs
    // deriveSeed(seed, 1000 + k). Cached and queued results are only
    // substitutable for re-simulation because this schedule never
    // changes.
    const std::uint64_t seed = 12345;
    EXPECT_EQ(attemptSeed(seed, 1), seed);
    EXPECT_EQ(attemptSeed(seed, 2), deriveSeed(seed, 1002));
    EXPECT_EQ(attemptSeed(seed, 3), deriveSeed(seed, 1003));
    EXPECT_EQ(attemptSeed(seed, 7), deriveSeed(seed, 1007));
    // Distinct attempts must get distinct streams.
    EXPECT_NE(attemptSeed(seed, 2), seed);
    EXPECT_NE(attemptSeed(seed, 2), attemptSeed(seed, 3));
}

TEST(Supervisor, TransientClassification)
{
    EXPECT_TRUE(isTransient("watchdog"));
    EXPECT_TRUE(isTransient("estimator"));
    EXPECT_TRUE(isTransient("signal"));
    EXPECT_TRUE(isTransient("deadline"));
    EXPECT_TRUE(isTransient("panic"));
    EXPECT_FALSE(isTransient("input"));
    EXPECT_FALSE(isTransient("checkpoint"));
    EXPECT_FALSE(isTransient("fatal"));
    EXPECT_FALSE(isTransient("usage"));
    // Exit codes land in the same classes for both executors.
    EXPECT_EQ(classifyExitCode(0), "");
    EXPECT_EQ(classifyExitCode(10), "input");
    EXPECT_EQ(classifyExitCode(12), "watchdog");
    EXPECT_EQ(classifyExitCode(1), "fatal");
    EXPECT_EQ(classifyExitCode(3), "panic");
    std::string payload;
    EXPECT_EQ(runJobBody([](unsigned a) { return std::to_string(a); },
                         4, payload),
              0);
    EXPECT_EQ(payload, "4");
    EXPECT_EQ(runJobBody(
                  [](unsigned) -> std::string {
                      raiseError<WatchdogTimeout>("injected");
                  },
                  1, payload),
              WatchdogTimeout::code);
}

// --- Campaign golden through the queue ----------------------------

TEST(SweepCampaign, MatchesInProcessSweepByteForByte)
{
    const CampaignManifest m = tinyManifest();

    // In-process reference (the serial EvaluationSweep path).
    EvaluationSweep sweep(MachineConfig::benchDefault(), m.rc);
    std::vector<PairResult> ref = {
        sweep.runPair("gcc", "eon", m.levels)};
    std::ostringstream refCsv;
    writePairResultsCsv(refCsv, ref);

    TempDir q("golden");
    const auto cfg = supervisedConfig(q.path);
    superviseCampaign(m, cfg, nullptr);
    SweepService svc(cfg);
    EXPECT_EQ(refCsv.str(), campaignCsv(svc));

    // Resuming a finished queue re-runs nothing and stays
    // byte-identical.
    EXPECT_EQ(svc.readmitQuarantined(), 0u);
    const WorkerStats ws = svc.serve();
    EXPECT_EQ(ws.completed, 0u);
    EXPECT_EQ(refCsv.str(), campaignCsv(svc));
}

TEST(SweepCampaign, MissingCellsAreExplicitAndExitCodesDistinct)
{
    // Fail F=1 permanently: the F=0.5 cell survives, so the
    // campaign is partial (20) with one explicit gap.
    TempDir partialQ("partial");
    const auto partialCfg = supervisedConfig(partialQ.path);
    superviseCampaign(microManifest({0.5, 1.0}), partialCfg,
                      [](const std::string &id, unsigned) {
                          if (id == "soe:mcf:art:F=1")
                              raiseError<InputError>("injected");
                      });
    SweepService partial(partialCfg);
    const CampaignResult agg = partial.aggregate();
    ASSERT_EQ(agg.results.size(), 1u);
    ASSERT_EQ(agg.missing.size(), 1u);
    EXPECT_EQ(agg.missing[0].marker(),
              "MISSING(mcf:art,F=1,input after 1 attempt(s))");
    EXPECT_EQ(agg.exitCode(), exitCampaignPartial);

    // Fail every SOE cell: nothing completed (21).
    TempDir failedQ("failed");
    const auto failedCfg = supervisedConfig(failedQ.path);
    superviseCampaign(microManifest(), failedCfg,
                      [](const std::string &id, unsigned) {
                          if (isSoeJob(id))
                              raiseError<InputError>("injected");
                      });
    SweepService failed(failedCfg);
    const CampaignResult none = failed.aggregate();
    EXPECT_TRUE(none.results.empty());
    EXPECT_EQ(none.exitCode(), exitCampaignFailed);
    EXPECT_NE(campaignCsv(failed).find(
                  "MISSING(mcf:art,F=0.5,input after 1 attempt(s))"),
              std::string::npos);
    EXPECT_NE(exitCampaignPartial, exitCampaignFailed);

    // Re-admitting the quarantined job and serving without the
    // fault completes the campaign (`sweep --resume`).
    EXPECT_EQ(failed.readmitQuarantined(), 1u);
    failed.serve();
    const CampaignResult fixed = failed.aggregate();
    EXPECT_TRUE(fixed.complete());
    EXPECT_EQ(fixed.exitCode(), 0);
}

TEST(SweepService, ResumeReadmitsQuarantinedJobAtAttemptOne)
{
    const CampaignManifest m = tinyManifest();
    EvaluationSweep sweep(MachineConfig::benchDefault(), m.rc);
    std::vector<PairResult> ref = {
        sweep.runPair("gcc", "eon", m.levels)};
    std::ostringstream golden;
    writePairResultsCsv(golden, ref);

    // The F=0.5 cell livelocks on every attempt until its budget is
    // spent and it is quarantined after attempt 2.
    TempDir q("resume");
    auto cfg = supervisedConfig(q.path);
    cfg.maxAttempts = 2;
    const auto first = superviseCampaign(
        m, cfg, [](const std::string &id, unsigned) {
            if (id == "soe:gcc:eon:F=0.5")
                raiseError<WatchdogTimeout>("injected livelock");
        });
    ASSERT_EQ(first.at("soe:gcc:eon:F=0.5").phase,
              JobPhase::Quarantined);
    ASSERT_EQ(first.at("soe:gcc:eon:F=0.5").failedAttempts, 2u);

    // Resume: the job reruns at attempt 1 — the base seed, not the
    // attempt-3 jittered one — so the CSV equals the uninterrupted
    // golden byte for byte.
    SweepService svc(cfg);
    EXPECT_EQ(svc.readmitQuarantined(), 1u);
    const WorkerStats ws = svc.serve();
    EXPECT_EQ(ws.completed, 1u);
    JobQueue queue;
    queue.open(q.path, campaignFromManifest(m).journalKey(),
               QueueConfig{});
    EXPECT_EQ(queue.snapshot().at("soe:gcc:eon:F=0.5").doneAttempt, 1u);
    EXPECT_EQ(golden.str(), campaignCsv(svc));
}
