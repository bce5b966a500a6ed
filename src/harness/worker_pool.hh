/**
 * @file
 * In-process multithreaded sweep executor.
 *
 * The fork-per-job worker loop (service.cc) pays a fork + exec-free
 * child, a pipe, and at least two flock/fsync rounds per job. For
 * short sweep jobs that dispatch overhead — not simulation work —
 * caps throughput. The WorkerPool removes it: N OS threads each
 * claim one job from the durable queue whenever they are idle, run
 * it through thread-local Runner/System instances, and commit the
 * result through the shared content-addressed result cache. A
 * thread never holds a job it is not running, so no job waits
 * behind another inside one thread.
 *
 * Isolation is preserved by policy, not abandoned:
 *
 *  - pool threads claim only *pristine* jobs (no committed failure,
 *    no lost lease). Any retry — after a transient failure or a
 *    reclaimed lease — is escalated back to the crash-isolated
 *    fork-per-job path, which can survive segfaults and enforce
 *    wall-clock deadlines the way a thread cannot;
 *  - a worker thread that trips a SimError quarantines (or fails)
 *    only its job: the exception is caught at the job boundary,
 *    mapped to the taxonomy's exit code and classified with the
 *    exact functions the fork path applies to dead children
 *    (runJobBody, classifyExitCode), so the committed failure
 *    record is byte-identical either way;
 *  - one dedicated heartbeat thread renews every live lease in the
 *    pool with a single flock'd append per tick
 *    (JobQueue::renewBatch); a lost lease abandons just that job.
 *
 * Thread-safety model: flock(2) excludes per open file description,
 * so every thread (workers and the heartbeat) opens its own JobQueue
 * and ResultCache on the same directories — the existing on-disk
 * locking gives inter-thread exclusion for free, with zero changes
 * to the durability story. The only in-process shared state is the
 * live-claim registry and the stats, both guarded by one mutex; the
 * simulated jobs themselves touch no mutable globals (the invariant
 * auditor is thread-local).
 *
 * Determinism contract: payloads depend only on (job fingerprint,
 * attempt seed); the simulator has no wall clock, PRNG or locale on
 * the job path (detlint DET rules). Aggregates of a threaded drain
 * are therefore byte-identical to fork-per-job and single-threaded
 * drains — golden-tested in tests/test_worker_pool.cc and CI-gated.
 *
 * Graceful stop (SIGTERM via stopFlag): each worker finishes the
 * job it is simulating (a thread cannot be killed safely) and
 * claims no further job; unclaimed jobs stay pending at the same
 * attempt number.
 */

// detlint: conc-optin — this file is the multithreaded executor;
// every mutable member below carries a capability annotation or an
// ownership tag (CONC-001); single-owner members carry the `worker`
// tag (see docs/correctness.md).

#ifndef SOEFAIR_HARNESS_WORKER_POOL_HH
#define SOEFAIR_HARNESS_WORKER_POOL_HH

#include <csignal>
#include <map>
#include <ostream>
#include <string>

#include "harness/service/queue.hh"
#include "harness/service/result_cache.hh"
#include "harness/sweep.hh"
#include "sim/annotations.hh"

namespace soefair
{
namespace harness
{
namespace service
{

struct WorkerPoolConfig
{
    /** Queue directory + campaign key + queue config, exactly as
     *  the owning SweepService opened them. */
    std::string queueDir SOE_THREAD_OWNED(worker);
    std::string queueKey SOE_THREAD_OWNED(worker);
    QueueConfig queue SOE_THREAD_OWNED(worker);
    /** Result cache directory; empty disables the cache. */
    std::string cacheDir SOE_THREAD_OWNED(worker);
    /** Lease-record worker name; thread i signs as "<name>#i". */
    std::string workerName SOE_THREAD_OWNED(worker) = "worker";
    /** Pool size (>= 1). */
    unsigned threads SOE_THREAD_OWNED(worker) = 1;
    double leaseSeconds SOE_THREAD_OWNED(worker) = 60.0;
    /** Heartbeat-thread tick; <= 0 means leaseSeconds / 3. */
    double heartbeatSeconds SOE_THREAD_OWNED(worker) = 0.0;
    std::ostream *progress SOE_THREAD_OWNED(worker) = nullptr;
    /** Graceful-shutdown flag (the CLI's SIGTERM handler). */
    const volatile std::sig_atomic_t *stopFlag
        SOE_THREAD_OWNED(worker) = nullptr;
};

struct WorkerPoolStats
{
    unsigned completed SOE_THREAD_OWNED(worker) = 0;
    /** Of `completed`, jobs served from the result cache. */
    unsigned fromCache SOE_THREAD_OWNED(worker) = 0;
    unsigned failed SOE_THREAD_OWNED(worker) = 0;
    /** Leases lost mid-run (result discarded or cached only). */
    unsigned leasesLost SOE_THREAD_OWNED(worker) = 0;
    /** True when the pool exited on the stop flag, not drain. */
    bool stopped SOE_THREAD_OWNED(worker) = false;
    /** Sum of the per-thread cache instances' stats. */
    ResultCache::Stats cache SOE_THREAD_OWNED(worker);
};

class WorkerPool
{
  public:
    /**
     * @param bodies The campaign's job bodies keyed by job id (the
     * map SweepService::serve builds); must outlive drain(). Bodies
     * are run concurrently, which is safe because every SweepCampaign
     * job body constructs its own Runner/System.
     */
    WorkerPool(const WorkerPoolConfig &config,
               const std::map<std::string, CampaignJob> &bodies);

    /**
     * Run the pool until no pristine job is claimable (or the stop
     * flag rises). Retries and previously-leased jobs are left for
     * the caller's fork-per-job phase. Infrastructure failures
     * (queue corruption, cache I/O) propagate as SimErrors after
     * every thread has joined.
     */
    WorkerPoolStats drain();

  private:
    WorkerPoolConfig cfg SOE_THREAD_OWNED(worker);
    const std::map<std::string, CampaignJob> &bodies;
};

} // namespace service
} // namespace harness
} // namespace soefair

#endif // SOEFAIR_HARNESS_WORKER_POOL_HH
