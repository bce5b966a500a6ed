#include "harness/service/service.hh"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>

#include "harness/job_exit.hh"
#include "harness/jsonl.hh"
#include "harness/machine_config.hh"
#include "harness/worker_pool.hh"
#include "sim/errors.hh"
#include "sim/logging.hh"
#include "stats/statfmt.hh"

namespace soefair
{
namespace harness
{
namespace service
{

namespace
{

using Clock = std::chrono::steady_clock;

constexpr const char *manifestName = "manifest.jsonl";

std::string
field(const std::map<std::string, std::string> &fields,
      const char *name)
{
    auto it = fields.find(name);
    return it == fields.end() ? std::string() : it->second;
}

void
sleepMs(unsigned ms)
{
    struct timespec ts;
    ts.tv_sec = ms / 1000;
    ts.tv_nsec = long(ms % 1000) * 1000000L;
    while (nanosleep(&ts, &ts) != 0 && errno == EINTR) {
    }
}

std::int64_t
epochNow()
{
    return std::int64_t(::time(nullptr));
}

void
writeAll(int fd, const std::string &data)
{
    const char *p = data.data();
    std::size_t left = data.size();
    while (left > 0) {
        ssize_t n = ::write(fd, p, left);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return; // parent gone; the child is about to _exit
        }
        p += n;
        left -= std::size_t(n);
    }
}

/** One forked job attempt in flight under a lease. */
struct Running
{
    pid_t pid = -1;
    int pipeFd = -1;
    LeaseClaim claim;
    std::string fingerprint;
    std::uint64_t effSeed = 0;
    Clock::time_point start;
    Clock::time_point lastBeat;
    bool deadlineKilled = false;
    /** Lease lost mid-run: discard the result when reaped. */
    bool abandoned = false;
    std::string payload;
};

} // namespace

SweepCampaign
campaignFromManifest(const CampaignManifest &m)
{
    return SweepCampaign(MachineConfig::benchDefault(), m.rc,
                         m.pairs, m.levels);
}

namespace
{

/**
 * Flat string fields of a manifest, the encoding of its on-disk
 * line: pairs, levels, measure, warm, twarm, maxcyc, ff.
 */
std::map<std::string, std::string>
manifestToFields(const CampaignManifest &m)
{
    std::ostringstream pairs;
    for (std::size_t i = 0; i < m.pairs.size(); ++i) {
        if (i)
            pairs << ",";
        pairs << m.pairs[i].first << ":" << m.pairs[i].second;
    }
    std::ostringstream levels;
    for (std::size_t i = 0; i < m.levels.size(); ++i) {
        if (i)
            levels << ",";
        levels << statistics::statfmt::full(m.levels[i]);
    }
    std::map<std::string, std::string> f;
    f["pairs"] = pairs.str();
    f["levels"] = levels.str();
    f["measure"] = std::to_string(m.rc.measureInstrs);
    f["warm"] = std::to_string(m.rc.warmupInstrs);
    f["twarm"] = std::to_string(m.rc.timingWarmInstrs);
    f["maxcyc"] = std::to_string(m.rc.maxCycles);
    f["ff"] = m.rc.fastForward ? "1" : "0";
    return f;
}

/** Rebuild a manifest from its flat fields; raises CheckpointError
 *  (mentioning `where`) on malformed pairs/levels. */
CampaignManifest
manifestFromFields(const std::map<std::string, std::string> &f,
                   const std::string &where)
{
    CampaignManifest m;
    std::stringstream pairsSs(field(f, "pairs"));
    std::string item;
    while (std::getline(pairsSs, item, ',')) {
        const auto colon = item.find(':');
        if (colon == std::string::npos || colon == 0 ||
            colon + 1 == item.size()) {
            raiseError<CheckpointError>("service: ", where,
                                        ": bad pair '", item, "'");
        }
        m.pairs.emplace_back(item.substr(0, colon),
                             item.substr(colon + 1));
    }
    std::stringstream levelsSs(field(f, "levels"));
    while (std::getline(levelsSs, item, ','))
        m.levels.push_back(std::strtod(item.c_str(), nullptr));
    if (m.pairs.empty() || m.levels.empty()) {
        raiseError<CheckpointError>("service: ", where,
                                    ": empty pairs/levels");
    }
    m.rc.measureInstrs =
        std::strtoull(field(f, "measure").c_str(), nullptr, 10);
    m.rc.warmupInstrs =
        std::strtoull(field(f, "warm").c_str(), nullptr, 10);
    m.rc.timingWarmInstrs =
        std::strtoull(field(f, "twarm").c_str(), nullptr, 10);
    m.rc.maxCycles =
        std::strtoull(field(f, "maxcyc").c_str(), nullptr, 10);
    m.rc.fastForward = field(f, "ff") != "0";
    return m;
}

std::string
manifestLine(const CampaignManifest &m)
{
    const auto f = manifestToFields(m);
    std::ostringstream os;
    os << "{\"manifest\":\"soefair-campaign\",\"v\":"
       << manifestVersion << ",\"pairs\":\""
       << jsonlEscape(f.at("pairs")) << "\",\"levels\":\""
       << jsonlEscape(f.at("levels"))
       << "\",\"measure\":" << f.at("measure")
       << ",\"warm\":" << f.at("warm")
       << ",\"twarm\":" << f.at("twarm")
       << ",\"maxcyc\":" << f.at("maxcyc")
       << ",\"ff\":" << f.at("ff") << "}";
    return jsonlSealLine(os.str());
}

} // namespace

void
writeManifest(const std::string &queue_dir, const CampaignManifest &m)
{
    const std::string path =
        queue_dir + "/" + manifestName;
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream os(tmp, std::ios::binary);
        if (!os) {
            raiseError<CheckpointError>(
                "service: cannot write manifest '", tmp, "'");
        }
        os << manifestLine(m) << "\n";
        os.flush();
        if (!os) {
            raiseError<CheckpointError>(
                "service: manifest write to '", tmp, "' failed");
        }
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        const int err = errno;
        ::unlink(tmp.c_str());
        raiseError<CheckpointError>(
            "service: cannot commit manifest '", path, "': ",
            std::strerror(err));
    }
}

CampaignManifest
loadManifest(const std::string &queue_dir)
{
    const std::string path = queue_dir + "/" + manifestName;
    std::ifstream is(path, std::ios::binary);
    std::string line;
    if (!is || !std::getline(is, line)) {
        raiseError<CheckpointError>("service: cannot read manifest '",
                                    path, "'");
    }
    std::map<std::string, std::string> f;
    if (!jsonlVerifyLine(line) || !jsonlParseLine(line, f)) {
        raiseError<CheckpointError>("service: manifest '", path,
                                    "' is corrupt (checksum or ",
                                    "parse failure)");
    }
    if (field(f, "manifest") != "soefair-campaign" ||
        field(f, "v") != std::to_string(manifestVersion)) {
        raiseError<CheckpointError>(
            "service: manifest '", path, "': bad header (version '",
            field(f, "v"), "')");
    }

    return manifestFromFields(f, "manifest '" + path + "'");
}

SweepService::SweepService(const ServiceConfig &config) : cfg(config)
{
    if (cfg.slots == 0)
        cfg.slots = 1;
    if (cfg.heartbeatSeconds <= 0.0)
        cfg.heartbeatSeconds = cfg.leaseSeconds / 3.0;
}

void
SweepService::setAttemptHook(
    std::function<void(const std::string &, unsigned)> hook)
{
    attemptHook = std::move(hook);
}

EnqueueStats
SweepService::enqueueCampaign(const CampaignManifest &m)
{
    SweepCampaign campaign = campaignFromManifest(m);
    const std::string key = campaign.journalKey();

    QueueConfig qcfg;
    qcfg.maxAttempts = cfg.maxAttempts;
    qcfg.backoffBaseSeconds = cfg.backoffBaseSeconds;

    JobQueue queue;
    queue.open(cfg.queueDir, key, qcfg);

    // The manifest must describe the queue's campaign: an existing
    // manifest for a different configuration is configuration drift,
    // not something to silently overwrite.
    const std::string manifestPath =
        cfg.queueDir + "/" + manifestName;
    if (std::ifstream(manifestPath).good()) {
        CampaignManifest existing = loadManifest(cfg.queueDir);
        const std::string existingKey =
            campaignFromManifest(existing).journalKey();
        if (existingKey != key) {
            raiseError<CheckpointError>(
                "service: queue '", cfg.queueDir,
                "' already holds a manifest for a different ",
                "campaign\n  manifest: ", existingKey,
                "\n  enqueueing: ", key);
        }
    } else {
        writeManifest(cfg.queueDir, m);
    }

    EnqueueStats stats;
    for (const auto &job : campaign.jobs()) {
        QueueJob qj;
        qj.id = job.id;
        qj.fingerprint = campaign.jobFingerprint(job.id);
        qj.seed = SweepCampaign::jobSeed(job.id);
        switch (queue.enqueue(qj)) {
          case EnqueueResult::Added:
            stats.added++;
            break;
          case EnqueueResult::Duplicate:
            stats.duplicates++;
            break;
        }
    }
    if (cfg.progress) {
        std::ostringstream os;
        os << "[service] enqueued " << stats.added << " job(s) ("
           << stats.duplicates << " already queued) into "
           << cfg.queueDir;
        logging::printLine(*cfg.progress, os.str());
    }
    return stats;
}

WorkerStats
SweepService::serve()
{
    CampaignManifest m = loadManifest(cfg.queueDir);
    SweepCampaign campaign = campaignFromManifest(m);
    if (attemptHook)
        campaign.setAttemptHook(attemptHook);
    const std::string key = campaign.journalKey();

    QueueConfig qcfg;
    qcfg.maxAttempts = cfg.maxAttempts;
    qcfg.backoffBaseSeconds = cfg.backoffBaseSeconds;

    JobQueue queue;
    queue.open(cfg.queueDir, key, qcfg);

    ResultCache cache;
    if (!cfg.cacheDir.empty())
        cache.open(cfg.cacheDir);

    std::map<std::string, CampaignJob> bodies;
    for (auto &job : campaign.jobs())
        bodies.emplace(job.id, std::move(job));

    WorkerStats stats;
    std::vector<Running> running;

    auto progress = [&](const std::string &msg) {
        if (cfg.progress) {
            logging::printLine(*cfg.progress,
                               "[service:" + cfg.workerName + "] " +
                                   msg);
        }
    };
    auto stopRequested = [&] {
        return cfg.stopFlag && *cfg.stopFlag != 0;
    };

    if (cfg.threads > 0) {
        // Phase A: the in-process thread pool drains every pristine
        // job. Retries (and jobs whose leases were reclaimed) are
        // left pending and handled by the fork loop below — the
        // escalation-to-fork policy that keeps crash isolation for
        // anything that already failed once.
        WorkerPoolConfig pc;
        pc.queueDir = cfg.queueDir;
        pc.queueKey = key;
        pc.queue = qcfg;
        pc.cacheDir = cfg.cacheDir;
        pc.workerName = cfg.workerName;
        pc.threads = cfg.threads;
        pc.leaseSeconds = cfg.leaseSeconds;
        pc.heartbeatSeconds = cfg.heartbeatSeconds;
        pc.progress = cfg.progress;
        pc.stopFlag = cfg.stopFlag;
        WorkerPool pool(pc, bodies);
        const WorkerPoolStats ps = pool.drain();
        stats.completed += ps.completed;
        stats.fromCache += ps.fromCache;
        stats.failed += ps.failed;
        stats.leasesLost += ps.leasesLost;
        stats.cache = ps.cache;
        if (ps.stopped) {
            stats.stopped = true;
            progress("stopping on request (graceful shutdown)");
            return stats;
        }
    }

    auto launch = [&](const LeaseClaim &claim) {
        auto it = bodies.find(claim.job.id);
        if (it == bodies.end()) {
            // The queue names a job this campaign does not know:
            // configuration drift the key check should have caught.
            raiseError<CheckpointError>(
                "service: queued job '", claim.job.id,
                "' is not part of the campaign");
        }
        int fds[2];
        if (pipe(fds) != 0) {
            queue.fail(claim, "fork",
                       std::string("pipe: ") + std::strerror(errno),
                       /*transient=*/true, epochNow());
            stats.failed++;
            return;
        }
        std::cout.flush();
        std::cerr.flush();
        if (cfg.progress)
            cfg.progress->flush();

        pid_t pid = fork();
        if (pid < 0) {
            ::close(fds[0]);
            ::close(fds[1]);
            queue.fail(claim, "fork",
                       std::string("fork: ") + std::strerror(errno),
                       /*transient=*/true, epochNow());
            stats.failed++;
            return;
        }
        if (pid == 0) {
            // Child: run the job body, ship the payload through the
            // pipe, _exit with the SimError taxonomy's code.
            ::close(fds[0]);
            std::string payload;
            const int code =
                runJobBody(it->second.run, claim.attempt, payload);
            if (code == 0)
                writeAll(fds[1], payload);
            ::close(fds[1]);
            // Fork-child hard exit: the child must not unwind or
            // run the parent's atexit state.
            // detlint: allow(ERR-001)
            _exit(code);
        }

        ::close(fds[1]);
        int fl = fcntl(fds[0], F_GETFL, 0);
        fcntl(fds[0], F_SETFL, fl | O_NONBLOCK);
        Running r;
        r.pid = pid;
        r.pipeFd = fds[0];
        r.claim = claim;
        r.fingerprint = claim.job.fingerprint;
        r.effSeed = attemptSeed(claim.job.seed, claim.attempt);
        r.start = Clock::now();
        r.lastBeat = r.start;
        running.push_back(std::move(r));
        progress(claim.job.id + ": attempt " +
                 std::to_string(claim.attempt) + " (pid " +
                 std::to_string(pid) + ")");
    };

    auto drainPipe = [](Running &r) {
        char buf[4096];
        for (;;) {
            ssize_t n = ::read(r.pipeFd, buf, sizeof(buf));
            if (n > 0) {
                r.payload.append(buf, std::size_t(n));
                continue;
            }
            break;
        }
    };

    auto handleExit = [&](Running &r, int status) {
        drainPipe(r);
        ::close(r.pipeFd);
        if (r.abandoned) {
            stats.leasesLost++;
            progress(r.claim.job.id +
                     ": lease lost mid-run; result discarded");
            return;
        }
        const std::string cls =
            classifyStatus(status, r.deadlineKilled);
        if (cls.empty()) {
            // Cache before committing: even if the lease was lost
            // in the meantime, the payload is valid and
            // deterministic — the new owner will hit the cache.
            if (cache.isOpen())
                cache.store(r.fingerprint, r.effSeed, r.payload);
            if (queue.complete(r.claim, r.payload)) {
                stats.completed++;
                progress(r.claim.job.id + ": done");
            } else {
                stats.leasesLost++;
                progress(r.claim.job.id +
                         ": lease lost; result cached only");
            }
            return;
        }

        std::string detail;
        if (WIFEXITED(status)) {
            detail = "exit code " +
                     std::to_string(WEXITSTATUS(status));
        } else if (r.deadlineKilled) {
            detail = "deadline " +
                     std::to_string(cfg.deadlineSeconds) +
                     "s exceeded";
        } else if (WIFSIGNALED(status)) {
            detail = "signal " + std::to_string(WTERMSIG(status));
        } else {
            detail = "status " + std::to_string(status);
        }
        const bool transient = isTransient(cls);
        if (queue.fail(r.claim, cls, detail, transient, epochNow())) {
            stats.failed++;
            progress(r.claim.job.id + ": " +
                     (transient ? "transient" : "permanent") +
                     " failure (" + cls + ", " + detail + ")");
        } else {
            stats.leasesLost++;
        }
    };

    auto shutdown = [&] {
        // Graceful SIGTERM: kill in-flight children and hand their
        // leases back un-consumed — another worker (or a later
        // drain) reruns them at the same attempt number.
        for (auto &r : running) {
            kill(r.pid, SIGKILL);
            int status = 0;
            while (waitpid(r.pid, &status, 0) < 0 &&
                   errno == EINTR) {
            }
            ::close(r.pipeFd);
            queue.release(r.claim);
            progress(r.claim.job.id +
                     ": lease released (shutdown)");
        }
        running.clear();
        stats.stopped = true;
        progress("stopping on request (graceful shutdown)");
    };

    for (;;) {
        if (stopRequested()) {
            shutdown();
            break;
        }

        // Fill free slots. Cache hits complete without consuming a
        // slot, so keep claiming until a fork happens or the queue
        // has nothing eligible.
        while (running.size() < cfg.slots && !stopRequested()) {
            LeaseClaim claim;
            if (!queue.claim(cfg.workerName, epochNow(),
                             cfg.leaseSeconds, claim))
                break;
            const std::uint64_t effSeed =
                attemptSeed(claim.job.seed, claim.attempt);
            std::string payload;
            if (cache.isOpen() &&
                cache.lookup(claim.job.fingerprint, effSeed,
                             payload)) {
                if (queue.complete(claim, payload)) {
                    stats.completed++;
                    stats.fromCache++;
                    progress(claim.job.id +
                             ": served from result cache");
                } else {
                    stats.leasesLost++;
                }
                continue;
            }
            launch(claim);
        }

        if (running.empty()) {
            if (stopRequested()) {
                shutdown();
                break;
            }
            if (queue.drained())
                break;
            if (!queue.hasClaimable(epochNow())) {
                // Other workers hold live leases (or retries are
                // backing off). Lease expiry guarantees progress.
                sleepMs(unsigned(
                    std::max(0.05, cfg.pollSeconds) * 1000));
            } else {
                sleepMs(10);
            }
            continue;
        }

        bool reaped = false;
        const auto steadyNow = Clock::now();
        for (std::size_t i = 0; i < running.size();) {
            Running &r = running[i];
            drainPipe(r);
            int status = 0;
            pid_t w = waitpid(r.pid, &status, WNOHANG);
            if (w == r.pid) {
                handleExit(r, status);
                running.erase(running.begin() + long(i));
                reaped = true;
                continue;
            }
            const double elapsed =
                std::chrono::duration<double>(steadyNow - r.start)
                    .count();
            if (cfg.deadlineSeconds > 0 && !r.deadlineKilled &&
                elapsed > cfg.deadlineSeconds) {
                kill(r.pid, SIGKILL);
                r.deadlineKilled = true;
            }
            const double sinceBeat =
                std::chrono::duration<double>(steadyNow - r.lastBeat)
                    .count();
            if (!r.abandoned && sinceBeat >= cfg.heartbeatSeconds) {
                r.lastBeat = steadyNow;
                if (!queue.heartbeat(r.claim, epochNow(),
                                     cfg.leaseSeconds)) {
                    // Someone reclaimed the lease (we were presumed
                    // dead). Abandon: kill the child and discard.
                    kill(r.pid, SIGKILL);
                    r.abandoned = true;
                }
            }
            ++i;
        }
        if (!reaped)
            sleepMs(20);
    }

    if (cache.isOpen()) {
        // Fold the fork phase's cache stats on top of the pool
        // phase's (stats.cache already carries the pool's).
        const ResultCache::Stats cs = cache.stats();
        stats.cache.hits += cs.hits;
        stats.cache.misses += cs.misses;
        stats.cache.stores += cs.stores;
        stats.cache.corruptEvictions += cs.corruptEvictions;
    }
    if (cfg.progress) {
        std::ostringstream os;
        os << "[service:" << cfg.workerName << "] "
           << (stats.stopped ? "stopped" : "drained") << ": "
           << stats.completed << " completed (" << stats.fromCache
           << " from cache), " << stats.failed << " failed, "
           << stats.leasesLost << " lease(s) lost";
        if (cache.isOpen()) {
            os << "; cache " << stats.cache.hits << " hit(s) / "
               << stats.cache.misses << " miss(es) / "
               << stats.cache.corruptEvictions << " evicted";
        }
        logging::printLine(*cfg.progress, os.str());
    }
    return stats;
}

unsigned
SweepService::readmitQuarantined()
{
    const SweepCampaign campaign =
        campaignFromManifest(loadManifest(cfg.queueDir));
    QueueConfig qcfg;
    qcfg.maxAttempts = cfg.maxAttempts;
    JobQueue queue;
    queue.open(cfg.queueDir, campaign.journalKey(), qcfg);
    const unsigned n = queue.readmitQuarantined();
    if (cfg.progress && n > 0) {
        logging::printLine(*cfg.progress,
                           "[service] re-admitted " +
                               std::to_string(n) +
                               " quarantined job(s) at attempt 1");
    }
    return n;
}

CampaignResult
SweepService::aggregate()
{
    CampaignManifest m = loadManifest(cfg.queueDir);
    SweepCampaign campaign = campaignFromManifest(m);
    const std::string key = campaign.journalKey();

    QueueConfig qcfg;
    qcfg.maxAttempts = cfg.maxAttempts;

    JobQueue queue;
    queue.open(cfg.queueDir, key, qcfg);
    const auto snap = queue.snapshot();

    std::vector<JobOutcome> outcomes;
    for (const auto &job : campaign.jobs()) {
        auto it = snap.find(job.id);
        if (it == snap.end())
            continue; // never enqueued -> "job not scheduled"
        const JobStatus &js = it->second;
        JobOutcome o;
        o.id = job.id;
        switch (js.phase) {
          case JobPhase::Done:
            o.done = true;
            o.payload = js.payload;
            o.attempts = std::max(1u, js.doneAttempt);
            break;
          case JobPhase::Quarantined:
            o.done = false;
            o.failClass = js.failClass;
            o.detail = js.failDetail;
            o.attempts = js.failClass == "lease-expired"
                             ? js.leaseLosses
                             : std::max(1u, js.failedAttempts);
            break;
          case JobPhase::Pending:
          case JobPhase::Leased:
            // A partial aggregate (stopped before drain): the cell
            // is visibly missing, not silently dropped.
            o.done = false;
            o.failClass = js.phase == JobPhase::Leased ? "leased"
                                                       : "pending";
            o.detail = "queue not drained";
            o.attempts = js.failedAttempts;
            break;
        }
        outcomes.push_back(std::move(o));
    }
    return campaign.aggregate(outcomes);
}

} // namespace service
} // namespace harness
} // namespace soefair
