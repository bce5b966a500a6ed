// detlint: conc-optin — multithreaded executor internals; every
// mutable member carries a capability/ownership annotation.

#include "harness/worker_pool.hh"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "harness/job_exit.hh"
#include "sim/errors.hh"
#include "sim/logging.hh"

namespace soefair
{
namespace harness
{
namespace service
{

namespace
{

std::int64_t
epochNow()
{
    return std::int64_t(::time(nullptr));
}

/**
 * A lease currently held by a worker thread, published to the
 * heartbeat thread through the registry. `lost` flows heartbeat ->
 * worker: the renewal failed, the result must be discarded.
 */
struct LiveClaim
{
    /** Written once by the owning worker before publication. */
    LeaseClaim claim SOE_THREAD_OWNED(worker);
    std::atomic<bool> lost SOE_THREAD_OWNED(worker){false};
};

/** State shared by the worker threads and the heartbeat thread. */
struct PoolShared
{
    const WorkerPoolConfig &cfg;
    const std::map<std::string, CampaignJob> &bodies;

    AnnotatedMutex lock SOE_THREAD_OWNED(worker);
    WorkerPoolStats stats SOE_GUARDED_BY(lock);
    /** Leases alive in some worker (heartbeat renewal set). */
    std::vector<std::shared_ptr<LiveClaim>> live SOE_GUARDED_BY(lock);
    /** First infrastructure failure; rethrown after join. */
    std::string firstError SOE_GUARDED_BY(lock);

    /** Workers joined; tells the heartbeat thread to exit. drain()
     *  sets it under doneLock and signals doneCv, so the heartbeat
     *  wakes at once instead of at its next tick. */
    AnnotatedMutex doneLock SOE_THREAD_OWNED(worker);
    std::condition_variable_any doneCv SOE_THREAD_OWNED(worker);
    bool workersDone SOE_GUARDED_BY(doneLock) = false;

    PoolShared(const WorkerPoolConfig &config,
               const std::map<std::string, CampaignJob> &b)
        : cfg(config), bodies(b)
    {}

    bool
    stopRequested() const
    {
        return cfg.stopFlag && *cfg.stopFlag != 0;
    }

    void
    unregister(const std::shared_ptr<LiveClaim> &lc)
    {
        AnnotatedLock g(lock);
        live.erase(std::remove(live.begin(), live.end(), lc),
                   live.end());
    }

    void
    recordError(const char *what)
    {
        AnnotatedLock g(lock);
        if (firstError.empty())
            firstError = what;
    }
};

/**
 * One worker thread: whenever idle, claim one pristine job, run it
 * in-process on thread-local simulator state, commit through the
 * cache + queue. Exits when no pristine job is claimable — retries
 * and reclaimed jobs belong to the caller's fork-per-job phase.
 */
void
workerMain(PoolShared &sh, unsigned index)
{
    const std::string name =
        sh.cfg.workerName + "#" + std::to_string(index);
    auto progress = [&](const std::string &msg) {
        if (sh.cfg.progress) {
            logging::printLine(*sh.cfg.progress,
                               "[pool:" + name + "] " + msg);
        }
    };

    WorkerPoolStats local;
    try {
        // Each thread opens its own JobQueue/ResultCache: flock(2)
        // excludes per open file description, so separate opens give
        // the threads the same mutual exclusion separate processes
        // get, with no new locking model.
        JobQueue queue;
        queue.open(sh.cfg.queueDir, sh.cfg.queueKey, sh.cfg.queue);
        ResultCache cache;
        if (!sh.cfg.cacheDir.empty())
            cache.open(sh.cfg.cacheDir);

        auto runOne = [&](const LeaseClaim &claim, LiveClaim &live) {
            auto it = sh.bodies.find(claim.job.id);
            if (it == sh.bodies.end()) {
                raiseError<CheckpointError>(
                    "pool: queued job '", claim.job.id,
                    "' is not part of the campaign");
            }
            const std::uint64_t effSeed =
                attemptSeed(claim.job.seed, claim.attempt);
            std::string payload;
            if (cache.isOpen() &&
                cache.lookup(claim.job.fingerprint, effSeed,
                             payload)) {
                if (queue.complete(claim, payload)) {
                    local.completed++;
                    local.fromCache++;
                    progress(claim.job.id +
                             ": served from result cache");
                } else {
                    local.leasesLost++;
                }
                return;
            }

            progress(claim.job.id + ": attempt " +
                     std::to_string(claim.attempt) +
                     " (in-process)");
            const int code =
                runJobBody(it->second.run, claim.attempt, payload);
            const std::string cls = classifyExitCode(code);
            if (cls.empty()) {
                // Cache before committing: even if the lease was
                // lost, the payload is valid and deterministic —
                // the new owner will hit the cache.
                if (cache.isOpen()) {
                    cache.store(claim.job.fingerprint, effSeed,
                                payload);
                }
                if (!live.lost.load() &&
                    queue.complete(claim, payload)) {
                    local.completed++;
                    progress(claim.job.id + ": done");
                } else {
                    local.leasesLost++;
                    progress(claim.job.id +
                             ": lease lost; result cached only");
                }
                return;
            }

            const std::string detail =
                "exit code " + std::to_string(code);
            const bool transient = isTransient(cls);
            if (queue.fail(claim, cls, detail, transient,
                           epochNow())) {
                local.failed++;
                progress(claim.job.id + ": " +
                         (transient ? "transient" : "permanent") +
                         " failure (" + cls + ", " + detail +
                         (transient
                              ? "); retry escalates to fork-per-job"
                              : ")"));
            } else {
                local.leasesLost++;
            }
        };

        LeaseClaim claim;
        while (!sh.stopRequested() &&
               queue.claim(name, epochNow(), sh.cfg.leaseSeconds,
                           claim, /*pristine_only=*/true)) {
            // Publish the lease to the heartbeat thread.
            auto lc = std::make_shared<LiveClaim>();
            lc->claim = claim;
            {
                AnnotatedLock g(sh.lock);
                sh.live.push_back(lc);
            }
            runOne(claim, *lc);
            sh.unregister(lc);
        }
        if (sh.stopRequested())
            local.stopped = true;
        if (cache.isOpen())
            local.cache = cache.stats();
    } catch (const std::exception &e) {
        sh.recordError(e.what());
    } catch (...) {
        sh.recordError("unknown worker-thread failure");
    }

    AnnotatedLock g(sh.lock);
    sh.stats.completed += local.completed;
    sh.stats.fromCache += local.fromCache;
    sh.stats.failed += local.failed;
    sh.stats.leasesLost += local.leasesLost;
    sh.stats.stopped = sh.stats.stopped || local.stopped;
    sh.stats.cache.hits += local.cache.hits;
    sh.stats.cache.misses += local.cache.misses;
    sh.stats.cache.stores += local.cache.stores;
    sh.stats.cache.corruptEvictions += local.cache.corruptEvictions;
}

/**
 * The heartbeat thread: while workers are busy simulating (and so
 * cannot renew their own leases), renew every live lease with one
 * flock'd multi-record append per tick. A failed renewal marks the
 * claim lost; the owning worker discards its result on completion.
 */
void
heartbeatMain(PoolShared &sh)
{
    try {
        const double hb = sh.cfg.heartbeatSeconds > 0.0
                              ? sh.cfg.heartbeatSeconds
                              : sh.cfg.leaseSeconds / 3.0;
        // Never renew more often than every 50 ms.
        const std::chrono::duration<double> tick(std::max(hb, 0.05));
        JobQueue queue;
        queue.open(sh.cfg.queueDir, sh.cfg.queueKey, sh.cfg.queue);
        while (true) {
            {
                AnnotatedLock g(sh.doneLock);
                const auto until = std::chrono::steady_clock::now() + tick;
                while (!sh.workersDone &&
                       sh.doneCv.wait_until(sh.doneLock, until) !=
                           std::cv_status::timeout) {
                }
                if (sh.workersDone)
                    break;
            }
            std::vector<std::shared_ptr<LiveClaim>> snap;
            {
                AnnotatedLock g(sh.lock);
                snap = sh.live;
            }
            if (snap.empty())
                continue;
            std::vector<LeaseClaim> claims;
            claims.reserve(snap.size());
            for (const auto &lc : snap)
                claims.push_back(lc->claim);
            const std::vector<bool> owned = queue.renewBatch(
                claims, epochNow(), sh.cfg.leaseSeconds);
            for (std::size_t i = 0; i < snap.size(); ++i) {
                // A claim completed between snapshot and renewal
                // reads as lost here; the stale flag is harmless
                // (its owner already unregistered it).
                if (!owned[i])
                    snap[i]->lost.store(true);
            }
        }
    } catch (const std::exception &e) {
        sh.recordError(e.what());
    } catch (...) {
        sh.recordError("unknown heartbeat-thread failure");
    }
}

} // namespace

WorkerPool::WorkerPool(
    const WorkerPoolConfig &config,
    const std::map<std::string, CampaignJob> &job_bodies)
    : cfg(config), bodies(job_bodies)
{
    cfg.threads = std::max(1u, cfg.threads);
}

WorkerPoolStats
WorkerPool::drain()
{
    PoolShared sh(cfg, bodies);
    std::thread heartbeat(heartbeatMain, std::ref(sh));
    std::vector<std::thread> workers;
    workers.reserve(cfg.threads);
    for (unsigned i = 0; i < cfg.threads; ++i)
        workers.emplace_back(workerMain, std::ref(sh), i);
    for (auto &t : workers)
        t.join();
    {
        AnnotatedLock g(sh.doneLock);
        sh.workersDone = true;
    }
    sh.doneCv.notify_all();
    heartbeat.join();

    WorkerPoolStats out;
    std::string err;
    {
        AnnotatedLock g(sh.lock);
        out = sh.stats;
        err = sh.firstError;
    }
    if (!err.empty()) {
        // Infrastructure failure (queue/cache I/O, corruption) —
        // not a job failure, those were committed per job.
        raiseError<CheckpointError>("pool: worker thread failed: ",
                                    err);
    }
    return out;
}

} // namespace service
} // namespace harness
} // namespace soefair
