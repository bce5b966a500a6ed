/**
 * @file
 * Sweep-as-a-service: campaign manifest + lease-based worker loop.
 *
 * The service turns a SweepCampaign into durable queue state that
 * any number of worker *processes* can drain cooperatively:
 *
 *  - `enqueueCampaign` writes the campaign manifest (a CRC-sealed
 *    JSON line in the queue directory that lets a later process
 *    rebuild the exact SweepCampaign) and enqueues every campaign
 *    job, carrying each job's content-address fingerprint and base
 *    seed;
 *  - `serve` is the worker loop, and the campaign's only fork loop
 *    (`sweep`, `drain` and the figure benches all run it). With
 *    ServiceConfig::threads > 0 it first drains pristine
 *    first-attempt jobs on an in-process thread pool
 *    (harness/worker_pool.hh) — one claim per idle thread, no fork
 *    — then falls through to the fork phase for whatever remains.
 *    The fork phase: claim a lease, check the result cache (a
 *    verified hit completes the job without simulating), otherwise
 *    fork the job body under a wall-clock deadline (SIGKILL on
 *    expiry) so a crash, sanitizer abort, hang or OOM takes down
 *    only its child, renew the lease by heartbeat while the child
 *    runs, classify the exit against the SimError taxonomy
 *    (harness/job_exit.hh) and commit done/failed. SIGTERM
 *    (ServiceConfig::stopFlag) is a graceful shutdown: in-flight
 *    children are killed and their leases released un-consumed, so
 *    another worker picks the jobs up at the same attempt number;
 *  - `aggregate` folds the queue's replayed state into the same
 *    CampaignResult/CSV path the in-process sweep uses; quarantined
 *    jobs surface as explicit MISSING cells.
 *
 * Determinism contract: an uninterrupted campaign, a campaign whose
 * workers were SIGKILLed at arbitrary points and then resumed, and
 * a campaign served entirely from the result cache all aggregate to
 * byte-identical CSV. Lease reclamation does not advance attempt
 * numbers; only committed failures do (jittered reseeding).
 */

#ifndef SOEFAIR_HARNESS_SERVICE_SERVICE_HH
#define SOEFAIR_HARNESS_SERVICE_SERVICE_HH

#include <csignal>
#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "harness/service/queue.hh"
#include "harness/service/result_cache.hh"
#include "harness/sweep.hh"

namespace soefair
{
namespace harness
{
namespace service
{

/** Campaign manifest format version. */
constexpr int manifestVersion = 1;

/**
 * Everything needed to rebuild the campaign in a different process
 * (the machine is always MachineConfig::benchDefault, the same
 * choice `soefair_cli sweep` makes).
 */
struct CampaignManifest
{
    std::vector<std::pair<std::string, std::string>> pairs;
    std::vector<double> levels;
    RunConfig rc;
};

/** Build the campaign a manifest describes. */
SweepCampaign campaignFromManifest(const CampaignManifest &m);

/** Write `<queue_dir>/manifest.jsonl` (atomic replace). */
void writeManifest(const std::string &queue_dir,
                   const CampaignManifest &m);

/** Load and verify a manifest; raises CheckpointError when absent,
 *  corrupt or checksum-failing. */
CampaignManifest loadManifest(const std::string &queue_dir);

struct ServiceConfig
{
    std::string queueDir;
    /** Result cache directory; empty disables the cache. */
    std::string cacheDir;
    std::string workerName = "worker";
    /** Lease duration; a worker silent for this long is presumed
     *  dead and its job is reclaimed. */
    double leaseSeconds = 60.0;
    /** Heartbeat interval; <= 0 means leaseSeconds / 3. */
    double heartbeatSeconds = 0.0;
    /** Per-attempt wall-clock deadline (SIGKILL on expiry);
     *  <= 0 disables. */
    double deadlineSeconds = 600.0;
    /** Committed transient failures before quarantine. */
    unsigned maxAttempts = 3;
    double backoffBaseSeconds = 0.25;
    /** Concurrent forked children in this worker. */
    unsigned slots = 1;
    /**
     * In-process worker threads (0 disables the pool). With threads
     * > 0, serve() first drains every *pristine* job (no committed
     * failure, no lost lease) on a WorkerPool — each idle thread
     * claims one job, thread-local Runner/System, no fork — and then
     * falls through to the fork-per-job loop for retries and
     * leftovers, so transient failures keep crash isolation and
     * wall-clock deadlines. Aggregates are byte-identical across
     * the two modes by the determinism contract.
     */
    unsigned threads = 0;
    /** Idle poll interval while other workers hold leases. */
    double pollSeconds = 0.5;
    std::ostream *progress = nullptr;
    /** Graceful-shutdown flag (set by the CLI's SIGTERM handler). */
    const volatile std::sig_atomic_t *stopFlag = nullptr;
};

struct EnqueueStats
{
    unsigned added = 0;
    unsigned duplicates = 0;
};

struct WorkerStats
{
    unsigned completed = 0;
    /** Of `completed`, jobs served from the result cache. */
    unsigned fromCache = 0;
    unsigned failed = 0;
    /** Leases lost mid-run (result discarded; new owner re-runs). */
    unsigned leasesLost = 0;
    /** True when the loop exited on the stop flag, not drain. */
    bool stopped = false;
    ResultCache::Stats cache;
};

class SweepService
{
  public:
    explicit SweepService(const ServiceConfig &config);

    /**
     * Write the manifest and durably enqueue every campaign job.
     * Re-invoking against an existing queue is idempotent; a queue
     * or manifest belonging to a different campaign configuration
     * raises CheckpointError.
     */
    EnqueueStats enqueueCampaign(const CampaignManifest &m);

    /** Worker drain loop (see file header). */
    WorkerStats serve();

    /** Fold the queue state into a CampaignResult. */
    CampaignResult aggregate();

    /** Return every quarantined job to pending at attempt 1
     *  (JobQueue::readmitQuarantined; `sweep --resume`). Returns the
     *  number re-admitted. */
    unsigned readmitQuarantined();

    /** Fault-injection passthrough (SweepCampaign::setAttemptHook),
     *  applied to the job bodies `serve` forks. */
    void setAttemptHook(
        std::function<void(const std::string &job_id,
                           unsigned attempt)> hook);

  private:
    ServiceConfig cfg;
    std::function<void(const std::string &, unsigned)> attemptHook;
};

} // namespace service
} // namespace harness
} // namespace soefair

#endif // SOEFAIR_HARNESS_SERVICE_SERVICE_HH
