#include "harness/service/queue.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "harness/job_exit.hh"
#include "harness/jsonl.hh"
#include "sim/errors.hh"

namespace soefair
{
namespace harness
{
namespace service
{

namespace
{

constexpr const char *segPrefix = "queue-";
constexpr const char *segSuffix = ".jsonl";
constexpr const char *lockName = "lock";

std::uint64_t
parseU64(const std::string &s)
{
    return std::strtoull(s.c_str(), nullptr, 10);
}

std::int64_t
parseI64(const std::string &s)
{
    return std::strtoll(s.c_str(), nullptr, 10);
}

std::string
field(const std::map<std::string, std::string> &fields,
      const char *name)
{
    auto it = fields.find(name);
    return it == fields.end() ? std::string() : it->second;
}

/**
 * Append `buf` (one or more newline-terminated records) to `path`
 * with a single write(2) + fsync: a concurrent reader (under the
 * queue lock) sees either every whole record or, after a kill
 * mid-write, a torn unterminated tail it can truncate away — never
 * an interleaving. Batched appends (renewBatch) ride the same
 * single-write guarantee, which is what amortizes the fsync across
 * a whole batch.
 */
void
rawWrite(const std::string &path, const std::string &buf)
{
    int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT,
                    0644);
    if (fd < 0) {
        raiseError<CheckpointError>("queue: cannot append to '",
                                    path, "': ",
                                    std::strerror(errno));
    }
    const char *p = buf.data();
    std::size_t left = buf.size();
    while (left > 0) {
        ssize_t n = ::write(fd, p, left);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            const int err = errno;
            ::close(fd);
            raiseError<CheckpointError>("queue: write to '", path,
                                        "' failed: ",
                                        std::strerror(err));
        }
        p += n;
        left -= std::size_t(n);
    }
    if (::fsync(fd) != 0 && errno != EINVAL && errno != EROFS) {
        const int err = errno;
        ::close(fd);
        raiseError<CheckpointError>("queue: fsync of '", path,
                                    "' failed: ",
                                    std::strerror(err));
    }
    ::close(fd);
}

/** One-record convenience wrapper over rawWrite. */
void
rawAppend(const std::string &path, const std::string &line)
{
    rawWrite(path, line + "\n");
}

/** Make a just-created file durable in its directory. */
void
fsyncDir(const std::string &dir)
{
    int fd = ::open(dir.c_str(), O_RDONLY);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
}

} // namespace

/** Exclusive inter-process lock on the queue directory (flock). */
class JobQueue::Lock
{
  public:
    explicit Lock(int lock_fd) : fd(lock_fd)
    {
        while (::flock(fd, LOCK_EX) != 0) {
            if (errno == EINTR)
                continue;
            raiseError<CheckpointError>("queue: flock failed: ",
                                        std::strerror(errno));
        }
    }

    ~Lock() { ::flock(fd, LOCK_UN); }

    Lock(const Lock &) = delete;
    Lock &operator=(const Lock &) = delete;

  private:
    int fd;
};

JobQueue::~JobQueue()
{
    close();
}

void
JobQueue::close()
{
    if (lockFd >= 0) {
        ::close(lockFd);
        lockFd = -1;
    }
    queueDir.clear();
    queueKey.clear();
    jobs.clear();
    order.clear();
    segConsumed.clear();
    segRecords.clear();
    lastSeg = 0;
}

std::string
JobQueue::segmentPath(unsigned seg) const
{
    char num[16];
    std::snprintf(num, sizeof(num), "%06u", seg);
    return queueDir + "/" + segPrefix + num + segSuffix;
}

bool
JobQueue::exists(const std::string &dir)
{
    const std::string first =
        dir + "/" + segPrefix + "000001" + segSuffix;
    return ::access(first.c_str(), F_OK) == 0;
}

void
JobQueue::open(const std::string &dir, const std::string &key,
               const QueueConfig &config)
{
    close();
    cfg = config;
    cfg.maxAttempts = std::max(1u, cfg.maxAttempts);
    cfg.segmentRecords = std::max(2u, cfg.segmentRecords);
    queueDir = dir;
    queueKey = key;

    const bool fresh = !exists(dir);
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
        raiseError<CheckpointError>("queue: cannot create '", dir,
                                    "': ", std::strerror(errno));
    }
    const std::string lockPath = dir + "/" + lockName;
    lockFd = ::open(lockPath.c_str(), O_RDWR | O_CREAT, 0644);
    if (lockFd < 0) {
        raiseError<CheckpointError>("queue: cannot open lock '",
                                    lockPath, "': ",
                                    std::strerror(errno));
    }

    Lock l(lockFd);
    if (fresh && !exists(dir)) {
        startSegmentLocked(1);
        fsyncDir(dir);
        return;
    }
    refreshLocked();
    if (queueKey != key) {
        raiseError<CheckpointError>(
            "queue '", dir, "': key mismatch\n  queue: ", queueKey,
            "\n  expected: ", key);
    }
}

void
JobQueue::startSegmentLocked(unsigned seg)
{
    std::ostringstream os;
    os << "{\"queue\":\"soefair-queue\",\"v\":" << queueVersion
       << ",\"seg\":" << seg << ",\"key\":\""
       << jsonlEscape(queueKey) << "\"}";
    const std::string sealed = jsonlSealLine(os.str());
    rawAppend(segmentPath(seg), sealed);
    if (seg > 1)
        fsyncDir(queueDir);
    lastSeg = seg;
    segConsumed[seg] = sealed.size() + 1;
    segRecords[seg] = 1;
}

void
JobQueue::refreshLocked()
{
    std::vector<unsigned> segs;
    for (const auto &entry :
         std::filesystem::directory_iterator(queueDir)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind(segPrefix, 0) != 0)
            continue;
        if (name.size() <= std::strlen(segPrefix) +
                               std::strlen(segSuffix))
            continue;
        if (name.substr(name.size() - std::strlen(segSuffix)) !=
            segSuffix)
            continue;
        const std::string num = name.substr(
            std::strlen(segPrefix),
            name.size() - std::strlen(segPrefix) -
                std::strlen(segSuffix));
        char *end = nullptr;
        const unsigned long v = std::strtoul(num.c_str(), &end, 10);
        if (!end || *end != '\0' || v == 0)
            continue;
        segs.push_back(unsigned(v));
    }
    if (segs.empty()) {
        raiseError<CheckpointError>("queue '", queueDir,
                                    "': no segment files");
    }
    std::sort(segs.begin(), segs.end());
    for (std::size_t i = 0; i < segs.size(); ++i) {
        if (segs[i] != i + 1) {
            raiseError<CheckpointError>(
                "queue '", queueDir, "': segment ", i + 1,
                " missing (found ", segs[i], ")");
        }
    }
    lastSeg = segs.back();
    for (unsigned seg : segs)
        readSegmentLocked(seg, seg == lastSeg);
}

void
JobQueue::readSegmentLocked(unsigned seg, bool last)
{
    const std::string path = segmentPath(seg);
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        raiseError<CheckpointError>("queue: cannot read segment '",
                                    path, "'");
    }
    std::uint64_t &consumed = segConsumed[seg];
    is.seekg(std::streamoff(consumed));
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string text = buf.str();

    std::size_t pos = 0;
    for (;;) {
        const std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            break;
        const std::string line = text.substr(pos, nl - pos);
        const bool isHeader = consumed == 0 && pos == 0;
        std::map<std::string, std::string> f;
        if (!jsonlVerifyLine(line)) {
            raiseError<CheckpointError>(
                "queue segment '", path, "': checksum mismatch at ",
                "record ", segRecords[seg] + 1,
                " (silent corruption)");
        }
        if (!jsonlParseLine(line, f)) {
            raiseError<CheckpointError>("queue segment '", path,
                                        "': malformed record ",
                                        segRecords[seg] + 1);
        }
        if (isHeader != (f.count("queue") != 0)) {
            raiseError<CheckpointError>(
                "queue segment '", path, "': ",
                isHeader ? "missing" : "unexpected",
                " segment header at record ", segRecords[seg] + 1);
        }
        applyLocked(f, path);
        segRecords[seg]++;
        pos = nl + 1;
    }
    consumed += pos;

    const std::size_t leftover = text.size() - pos;
    if (leftover > 0) {
        if (!last) {
            raiseError<CheckpointError>(
                "queue segment '", path, "': torn record inside a ",
                "non-final segment (", leftover, " bytes)");
        }
        // A worker died mid-append. The transition the fragment
        // described was never acted on (write-ahead), so cutting it
        // off loses nothing committed.
        warn("queue segment '", path, "': truncating torn final ",
             "record (", leftover, " bytes)");
        if (::truncate(path.c_str(), off_t(consumed)) != 0) {
            raiseError<CheckpointError>(
                "queue segment '", path, "': cannot truncate torn ",
                "record: ", std::strerror(errno));
        }
    }
}

void
JobQueue::applyLocked(const std::map<std::string, std::string> &f,
                      const std::string &where)
{
    if (f.count("queue")) {
        if (field(f, "queue") != "soefair-queue" ||
            field(f, "v") != std::to_string(queueVersion)) {
            raiseError<CheckpointError>(
                "queue segment '", where,
                "': bad header (version '", field(f, "v"), "')");
        }
        const std::string key = field(f, "key");
        if (queueKey.empty()) {
            queueKey = key;
        } else if (key != queueKey) {
            raiseError<CheckpointError>(
                "queue segment '", where, "': key mismatch\n  ",
                "segment: ", key, "\n  queue: ", queueKey);
        }
        return;
    }

    const std::string op = field(f, "op");
    const std::string id = field(f, "job");
    if (op.empty() || id.empty()) {
        raiseError<CheckpointError>("queue segment '", where,
                                    "': record without op/job");
    }

    if (op == "enqueue") {
        if (jobs.count(id)) {
            raiseError<CheckpointError>(
                "queue segment '", where, "': duplicate enqueue of ",
                "job '", id, "'");
        }
        JobStatus js;
        js.job.id = id;
        js.job.fingerprint = field(f, "fp");
        js.job.seed = parseU64(field(f, "seed"));
        jobs.emplace(id, std::move(js));
        order.push_back(id);
        return;
    }

    auto it = jobs.find(id);
    if (it == jobs.end()) {
        raiseError<CheckpointError>(
            "queue segment '", where, "': record for unknown job '",
            id, "' (queue belongs to a different campaign?)");
    }
    JobStatus &js = it->second;
    const std::string worker = field(f, "worker");
    auto clearLease = [&js] {
        js.worker.clear();
        js.leaseAttempt = 0;
        js.leaseExpiry = 0;
    };

    if (op == "lease") {
        js.phase = JobPhase::Leased;
        js.worker = worker;
        js.leaseAttempt = unsigned(parseU64(field(f, "attempt")));
        js.leaseExpiry = parseI64(field(f, "expiry"));
    } else if (op == "heartbeat") {
        // A heartbeat from a worker whose lease was already
        // reclaimed is stale: it lost the race, ignore it.
        if (js.phase == JobPhase::Leased && js.worker == worker)
            js.leaseExpiry = parseI64(field(f, "expiry"));
    } else if (op == "expire") {
        if (js.phase == JobPhase::Leased && js.worker == worker) {
            js.phase = JobPhase::Pending;
            js.leaseLosses++;
            clearLease();
        }
    } else if (op == "release") {
        if (js.phase == JobPhase::Leased && js.worker == worker) {
            js.phase = JobPhase::Pending;
            clearLease();
        }
    } else if (op == "done") {
        if (js.phase == JobPhase::Done) {
            raiseError<CheckpointError>(
                "queue segment '", where, "': duplicate done for ",
                "job '", id, "'");
        }
        js.phase = JobPhase::Done;
        js.payload = field(f, "payload");
        js.doneAttempt = unsigned(parseU64(field(f, "attempt")));
        clearLease();
    } else if (op == "failed") {
        if (js.phase == JobPhase::Done) {
            raiseError<CheckpointError>(
                "queue segment '", where, "': job '", id,
                "' failed after done");
        }
        js.phase = JobPhase::Pending;
        js.failedAttempts++;
        js.failClass = field(f, "class");
        js.failDetail = field(f, "detail");
        js.lastFailTime = parseI64(field(f, "t"));
        clearLease();
    } else if (op == "quarantine") {
        js.phase = JobPhase::Quarantined;
        js.failClass = field(f, "class");
        js.failDetail = field(f, "detail");
        clearLease();
    } else if (op == "readmit") {
        if (js.phase == JobPhase::Quarantined) {
            js.phase = JobPhase::Pending;
            js.failedAttempts = 0;
            js.leaseLosses = 0;
            js.lastFailTime = 0;
            js.failClass.clear();
            js.failDetail.clear();
        }
    } else {
        raiseError<CheckpointError>("queue segment '", where,
                                    "': unknown op '", op, "'");
    }
}

void
JobQueue::commitLocked(const std::string &bare_line)
{
    commitManyLocked({bare_line});
}

void
JobQueue::commitManyLocked(const std::vector<std::string> &bare_lines)
{
    soefair_assert(lockFd >= 0, "queue commit on closed queue");
    if (bare_lines.empty())
        return;
    // Rotate at most once, up front: a batch may finish a few
    // records past cfg.segmentRecords, which readers tolerate (the
    // count is only the rotation trigger, not a format invariant).
    if (segRecords[lastSeg] >= cfg.segmentRecords)
        startSegmentLocked(lastSeg + 1);
    std::vector<std::string> sealed;
    sealed.reserve(bare_lines.size());
    std::string buf;
    for (const auto &bare : bare_lines) {
        sealed.push_back(jsonlSealLine(bare));
        buf += sealed.back();
        buf += '\n';
    }
    // One write + one fsync for the whole batch.
    rawWrite(segmentPath(lastSeg), buf);
    for (std::size_t i = 0; i < sealed.size(); ++i) {
        segConsumed[lastSeg] += sealed[i].size() + 1;
        segRecords[lastSeg]++;
        std::map<std::string, std::string> f;
        if (!jsonlParseLine(sealed[i], f)) {
            raiseError<CheckpointError>(
                "queue: internal: unparsable record '",
                bare_lines[i], "'");
        }
        applyLocked(f, segmentPath(lastSeg));
    }
}

EnqueueResult
JobQueue::enqueue(const QueueJob &job)
{
    Lock l(lockFd);
    refreshLocked();
    if (jobs.count(job.id))
        return EnqueueResult::Duplicate;
    std::ostringstream os;
    os << "{\"op\":\"enqueue\",\"job\":\"" << jsonlEscape(job.id)
       << "\",\"fp\":\"" << jsonlEscape(job.fingerprint)
       << "\",\"seed\":" << job.seed << "}";
    commitLocked(os.str());
    return EnqueueResult::Added;
}

bool
JobQueue::claim(const std::string &worker, std::int64_t now,
                double lease_seconds, LeaseClaim &out,
                bool pristine_only)
{
    Lock l(lockFd);
    refreshLocked();
    for (const auto &id : order) {
        JobStatus &js = jobs[id];
        if (js.phase == JobPhase::Leased && js.leaseExpiry <= now) {
            // Reclaim the expired lease of a crashed/hung worker.
            warn("queue: reclaiming expired lease on job '", id,
                 "' (worker '", js.worker, "', loss ",
                 js.leaseLosses + 1, "/", cfg.maxAttempts, ")");
            std::ostringstream os;
            os << "{\"op\":\"expire\",\"job\":\"" << jsonlEscape(id)
               << "\",\"worker\":\"" << jsonlEscape(js.worker)
               << "\"}";
            commitLocked(os.str());
            if (js.leaseLosses >= cfg.maxAttempts) {
                // Poison job: it takes its worker down (or hangs it
                // past the lease) every time. Dead-letter it.
                quarantineLocked(
                    id, js.leaseLosses, "lease-expired",
                    "lease expired " +
                        std::to_string(js.leaseLosses) +
                        " time(s); presumed poison");
                continue;
            }
        }
        if (js.phase != JobPhase::Pending)
            continue;
        if (pristine_only &&
            (js.failedAttempts > 0 || js.leaseLosses > 0))
            continue;
        if (js.failedAttempts > 0) {
            const double backoff = backoffSeconds(
                cfg.backoffBaseSeconds, js.failedAttempts);
            if (double(now - js.lastFailTime) < backoff)
                continue;
        }
        LeaseClaim c;
        c.job = js.job;
        c.worker = worker;
        c.attempt = js.failedAttempts + 1;
        c.expiry = now + std::int64_t(std::llround(
                             std::max(1.0, lease_seconds)));
        std::ostringstream os;
        os << "{\"op\":\"lease\",\"job\":\"" << jsonlEscape(id)
           << "\",\"worker\":\"" << jsonlEscape(worker)
           << "\",\"attempt\":" << c.attempt
           << ",\"expiry\":" << c.expiry << "}";
        // The claim only becomes visible to the caller once its
        // lease record is durable.
        commitLocked(os.str());
        out = std::move(c);
        return true;
    }
    return false;
}

JobStatus *
JobQueue::ownedLocked(const LeaseClaim &c)
{
    auto it = jobs.find(c.job.id);
    if (it == jobs.end())
        return nullptr;
    JobStatus &js = it->second;
    if (js.phase != JobPhase::Leased || js.worker != c.worker ||
        js.leaseAttempt != c.attempt)
        return nullptr;
    return &js;
}

bool
JobQueue::heartbeat(const LeaseClaim &c, std::int64_t now,
                    double lease_seconds)
{
    std::vector<LeaseClaim> one{c};
    return renewBatch(one, now, lease_seconds).front();
}

std::vector<bool>
JobQueue::renewBatch(std::vector<LeaseClaim> &claims,
                     std::int64_t now, double lease_seconds)
{
    std::vector<bool> owned(claims.size(), false);
    if (claims.empty())
        return owned;
    Lock l(lockFd);
    refreshLocked();
    const std::int64_t expiry =
        now +
        std::int64_t(std::llround(std::max(1.0, lease_seconds)));
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < claims.size(); ++i) {
        if (!ownedLocked(claims[i]))
            continue; // lost: someone else owns the job now
        owned[i] = true;
        std::ostringstream os;
        os << "{\"op\":\"heartbeat\",\"job\":\""
           << jsonlEscape(claims[i].job.id) << "\",\"worker\":\""
           << jsonlEscape(claims[i].worker)
           << "\",\"expiry\":" << expiry << "}";
        lines.push_back(os.str());
    }
    // One flock round, one write + fsync for every renewal.
    commitManyLocked(lines);
    for (std::size_t i = 0; i < claims.size(); ++i) {
        if (owned[i])
            claims[i].expiry = expiry;
    }
    return owned;
}

bool
JobQueue::complete(const LeaseClaim &c, const std::string &payload)
{
    Lock l(lockFd);
    refreshLocked();
    if (!ownedLocked(c))
        return false;
    std::ostringstream os;
    os << "{\"op\":\"done\",\"job\":\"" << jsonlEscape(c.job.id)
       << "\",\"worker\":\"" << jsonlEscape(c.worker)
       << "\",\"attempt\":" << c.attempt << ",\"payload\":\""
       << jsonlEscape(payload) << "\"}";
    commitLocked(os.str());
    return true;
}

bool
JobQueue::fail(const LeaseClaim &c, const std::string &fail_class,
               const std::string &detail, bool transient,
               std::int64_t now)
{
    Lock l(lockFd);
    refreshLocked();
    if (!ownedLocked(c))
        return false;
    std::ostringstream os;
    os << "{\"op\":\"failed\",\"job\":\"" << jsonlEscape(c.job.id)
       << "\",\"worker\":\"" << jsonlEscape(c.worker)
       << "\",\"attempt\":" << c.attempt << ",\"class\":\""
       << jsonlEscape(fail_class) << "\",\"detail\":\""
       << jsonlEscape(detail) << "\",\"t\":" << now << "}";
    commitLocked(os.str());
    const JobStatus &js = jobs[c.job.id];
    if (!transient || js.failedAttempts >= cfg.maxAttempts) {
        quarantineLocked(c.job.id, js.failedAttempts, fail_class,
                         detail);
    }
    return true;
}

void
JobQueue::release(const LeaseClaim &c)
{
    Lock l(lockFd);
    refreshLocked();
    if (!ownedLocked(c))
        return;
    std::ostringstream os;
    os << "{\"op\":\"release\",\"job\":\"" << jsonlEscape(c.job.id)
       << "\",\"worker\":\"" << jsonlEscape(c.worker) << "\"}";
    commitLocked(os.str());
}

unsigned
JobQueue::readmitQuarantined()
{
    Lock l(lockFd);
    refreshLocked();
    std::vector<std::string> lines;
    for (const auto &id : order) {
        if (jobs[id].phase != JobPhase::Quarantined)
            continue;
        lines.push_back("{\"op\":\"readmit\",\"job\":\"" +
                        jsonlEscape(id) + "\"}");
    }
    commitManyLocked(lines);
    return unsigned(lines.size());
}

void
JobQueue::quarantineLocked(const std::string &job_id,
                           unsigned attempts, const std::string &cls,
                           const std::string &detail)
{
    warn("queue: quarantining job '", job_id, "' (", cls, ", ",
         detail, ")");
    std::ostringstream os;
    os << "{\"op\":\"quarantine\",\"job\":\"" << jsonlEscape(job_id)
       << "\",\"attempts\":" << attempts << ",\"class\":\""
       << jsonlEscape(cls) << "\",\"detail\":\""
       << jsonlEscape(detail) << "\"}";
    commitLocked(os.str());
}

std::map<std::string, JobStatus>
JobQueue::snapshot()
{
    Lock l(lockFd);
    refreshLocked();
    return jobs;
}

unsigned
JobQueue::openJobs()
{
    Lock l(lockFd);
    refreshLocked();
    unsigned open = 0;
    for (const auto &[id, js] : jobs) {
        if (js.phase == JobPhase::Pending ||
            js.phase == JobPhase::Leased)
            ++open;
    }
    return open;
}

bool
JobQueue::drained()
{
    return openJobs() == 0;
}

bool
JobQueue::hasClaimable(std::int64_t now)
{
    Lock l(lockFd);
    refreshLocked();
    for (const auto &[id, js] : jobs) {
        if (js.phase == JobPhase::Leased && js.leaseExpiry <= now)
            return true;
        if (js.phase != JobPhase::Pending)
            continue;
        if (js.failedAttempts > 0) {
            const double backoff = backoffSeconds(
                cfg.backoffBaseSeconds, js.failedAttempts);
            if (double(now - js.lastFailTime) < backoff)
                continue;
        }
        return true;
    }
    return false;
}

} // namespace service
} // namespace harness
} // namespace soefair
