/**
 * @file
 * Benchmark binary: runs one workload through the soefair library's
 * public API and prints one JSON object of raw measurements (run.py
 * turns them into metrics and checks them against the recorded
 * payload digests).
 *
 *   perfbench --workload starved|enforced|campaign
 *                    --seed N --seconds S --trace 0|1 --tmp DIR
 *                    [--setup-only]
 *
 * Workloads (see README.md for why each exists):
 *   starved   4 unfair pairs at F = 0 (MissOnlyPolicy) plus their
 *             single-thread baselines, one host thread;
 *   enforced  the same 4 pairs plus 5 miss-bound pairs at F = 1
 *             (FairnessPolicy) plus baselines, one host thread;
 *   campaign  the paper's 16 pairs x {0, 1/4, 1/2, 1} plus baselines
 *             through SweepService on a 2-thread pool: a cold drain,
 *             then a warm drain from a fresh queue.
 *
 * The seed only permutes the order of cells (pairs for campaign):
 * every cell's thread seeds are the evaluation campaign's own, so
 * every payload is checkable against one digest table for any seed.
 *
 * Untraced runs repeat the workload until --seconds have passed (and
 * at least twice) and report every repetition; --trace 1 runs it once
 * untraced and once traced (layers.hh). --setup-only stops at the
 * first Runner/serve() call and reports the steady-clock time reached
 * there.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics.hh"
#include "harness/machine_config.hh"
#include "harness/runner.hh"
#include "harness/service/queue.hh"
#include "harness/service/result_cache.hh"
#include "harness/service/service.hh"
#include "harness/sweep.hh"
#include "layers.hh"
#include "sim/invariant.hh"
#include "soe/policies.hh"

namespace fs = std::filesystem;
using namespace soefair;
using namespace soefair::harness;
using perfbench::nowNs;

namespace
{

// ---- Fixed run lengths (instructions per thread) -------------------
// The evaluation campaign's RunConfig scaled down so that a run
// repeats each workload several times within its time budget. The
// campaign runs at its own, larger scale because the pool and the
// result cache need jobs long enough to overlap.
constexpr double cellScale = 0.05;
constexpr double campaignScale = 0.05;
constexpr unsigned poolThreads = 2;
// Untraced runs repeat the workload at least this often (and until
// --seconds have passed) so that every timing is a median.
constexpr std::size_t minReps = 2;

RunConfig
runConfig(double scale)
{
    RunConfig rc = RunConfig{}.scaled(scale);
    rc.fastForward = true;
    return rc;
}

// ---- JSON output ------------------------------------------------------

std::string
quote(const std::string &s)
{
    std::ostringstream os;
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                os << "\\u" << std::hex << std::setw(4)
                   << std::setfill('0') << int(c) << std::dec;
            } else {
                os << c;
            }
        }
    }
    os << '"';
    return os.str();
}

std::string
num(double v)
{
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
}

// ---- Inputs -------------------------------------------------------------

/** Refuse environment knobs that would change what is simulated. */
std::optional<std::string>
envConflict()
{
    static const char *exact[] = {"SOEFAIR_SCALE", "SOEFAIR_FASTFORWARD",
                                  "SOEFAIR_GATEWAY"};
    for (const char *name : exact) {
        if (std::getenv(name))
            return std::string(name);
    }
    for (char **e = environ; *e; ++e) {
        if (std::strncmp(*e, "SOEFAIR_EVAL_", 13) == 0)
            return std::string(*e).substr(0, std::strcspn(*e, "="));
    }
    return std::nullopt;
}

std::uint64_t
splitmix(std::uint64_t &s)
{
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

template <typename T>
void
permute(std::vector<T> &v, std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[splitmix(s) % i]);
}

using Pairs = std::vector<std::pair<std::string, std::string>>;

const Pairs starvedPairs = {
    {"gcc", "eon"}, {"galgel", "gcc"}, {"mcf", "crafty"},
    {"art", "perlbmk"}};
const Pairs missBoundPairs = {
    {"mcf", "mcf"}, {"gcc", "gcc"}, {"swim", "swim"},
    {"apsi", "swim"}, {"swim", "vortex"}};

/** One simulation: a single-thread baseline or an SOE pair at F. */
struct Cell
{
    std::string id;
    bool st = false;
    std::string a, b;
    std::uint64_t seedA = 0, seedB = 0;
    double f = 0.0;
};

/** The campaign's cells for `pairs` at level `f` (ids and seeds as
 *  SweepCampaign assigns them), baselines first. */
std::vector<Cell>
cellsFor(const Pairs &pairs, double f)
{
    std::vector<Cell> st, soe;
    auto addSt = [&](const std::string &bench, std::uint64_t seed) {
        const std::string id = SweepCampaign::stJobId(bench, seed);
        for (const auto &c : st) {
            if (c.id == id)
                return;
        }
        st.push_back({id, true, bench, "", seed, 0, 0.0});
    };
    for (const auto &[a, b] : pairs) {
        const std::uint64_t seedA = pairSeed(0);
        const std::uint64_t seedB = a == b ? pairSeed(1) : pairSeed(0);
        addSt(a, seedA);
        addSt(b, seedB);
        soe.push_back({SweepCampaign::soeJobId(a, b, f), false, a, b,
                       seedA, seedB, f});
    }
    st.insert(st.end(), soe.begin(), soe.end());
    return st;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool setupOnly = false;
    std::string tmp;
};

// ---- Results ----------------------------------------------------------

struct PairRow
{
    std::string pair;
    double f = 0.0;
    double speedupOverSt = 0.0;
    double fairness = 0.0;
    double ipcTotal = 0.0;
};

/** Everything one repetition of a workload produced. */
struct Rep
{
    double wallS = 0.0;
    std::uint64_t instrs = 0;
    std::map<std::string, std::string> payloads;
    std::string csv;
    std::vector<PairRow> pairs;
    unsigned attempted = 0;
    std::vector<std::string> errors;
    /** Per-layer raw timings (traced campaign only). */
    std::map<std::string, double> service;
};

std::uint64_t
payloadInstrs(const std::string &id, const std::string &payload)
{
    if (id.rfind("st:", 0) == 0) {
        StRunResult r;
        return decodeStPayload(payload, r) ? r.instrs : 0;
    }
    SoeRunResult r;
    if (!decodeSoePayload(payload, r))
        return 0;
    std::uint64_t n = 0;
    for (const auto &t : r.threads)
        n += t.instrs;
    return n;
}

// ---- starved / enforced -----------------------------------------------

struct CellWorkload
{
    MachineConfig mc;
    RunConfig rc;
    std::vector<Cell> cells;
};

CellWorkload
setupCells(const Args &a)
{
    CellWorkload w;
    w.mc = MachineConfig::benchDefault();
    w.rc = runConfig(cellScale);
    if (a.workload == "starved") {
        w.cells = cellsFor(starvedPairs, 0.0);
    } else {
        Pairs p = starvedPairs;
        p.insert(p.end(), missBoundPairs.begin(), missBoundPairs.end());
        w.cells = cellsFor(p, 1.0);
    }
    permute(w.cells, a.seed);
    return w;
}

/** Run every cell once; traced runs go through the layers mirror. */
Rep
runCells(const CellWorkload &w, perfbench::SpanLog *log,
         perfbench::LayerTotals *tot)
{
    Rep rep;
    std::map<std::string, StRunResult> st;
    std::map<std::string, SoeRunResult> soeRes;
    Runner runner(w.mc);
    const std::int64_t t0 = nowNs();
    for (const auto &c : w.cells) {
        rep.attempted++;
        try {
            if (c.st) {
                const ThreadSpec spec = ThreadSpec::benchmark(c.a, c.seedA);
                StRunResult r =
                    log ? perfbench::tracedRunSingleThread(
                              w.mc, spec, w.rc, c.id, *log, *tot)
                        : runner.runSingleThread(spec, w.rc);
                rep.payloads[c.id] = encodeStPayload(r);
                st[c.id] = r;
                continue;
            }
            const std::vector<ThreadSpec> specs = {
                ThreadSpec::benchmark(c.a, c.seedA),
                ThreadSpec::benchmark(c.b, c.seedB)};
            soe::MissOnlyPolicy missOnly;
            soe::FairnessPolicy fair(c.f, w.mc.soe.missLatency, 2);
            soe::SchedulingPolicy &policy =
                c.f <= 0.0 ? static_cast<soe::SchedulingPolicy &>(missOnly)
                           : fair;
            SoeRunResult r =
                log ? perfbench::tracedRunSoe(w.mc, specs, policy, w.rc,
                                              c.id, *log, *tot)
                    : runner.runSoe(specs, policy, w.rc);
            if (r.timedOut)
                rep.errors.push_back(c.id + ": timed out");
            rep.payloads[c.id] = encodeSoePayload(r);
            soeRes[c.id] = r;
        } catch (const std::exception &e) {
            rep.errors.push_back(c.id + ": " + e.what());
        }
    }
    rep.wallS = double(nowNs() - t0) * 1e-9;

    for (const auto &[id, p] : rep.payloads)
        rep.instrs += payloadInstrs(id, p);
    // Figure 6/8 inputs, computed as EvaluationSweep::runPair does.
    for (const auto &c : w.cells) {
        if (c.st || !soeRes.count(c.id))
            continue;
        const auto ia = st.find(SweepCampaign::stJobId(c.a, c.seedA));
        const auto ib = st.find(SweepCampaign::stJobId(c.b, c.seedB));
        if (ia == st.end() || ib == st.end())
            continue;
        const SoeRunResult &r = soeRes[c.id];
        const std::vector<double> sp = {
            r.threads[0].ipc / ia->second.ipc,
            r.threads[1].ipc / ib->second.ipc};
        rep.pairs.push_back(
            {c.a + ":" + c.b, c.f, r.ipcTotal /
                 (0.5 * (ia->second.ipc + ib->second.ipc)),
             core::fairnessOfSpeedups(sp), r.ipcTotal});
    }
    return rep;
}

// ---- campaign -----------------------------------------------------------

struct CampaignWorkload
{
    service::CampaignManifest manifest;
    std::string key;
    std::string dir;
    std::string queueDir;
    std::string cacheDir;
    double enqueueS = 0.0;
};

service::ServiceConfig
serviceConfig(const std::string &queue_dir, const std::string &cache_dir)
{
    service::ServiceConfig cfg;
    cfg.queueDir = queue_dir;
    cfg.cacheDir = cache_dir;
    cfg.workerName = "perfbench";
    cfg.threads = std::min(poolThreads,
                           std::max(1u, std::thread::hardware_concurrency()));
    return cfg;
}

/** Fresh directories, queue creation, enqueue, result-cache open. */
CampaignWorkload
setupCampaign(const Args &a, unsigned rep_index)
{
    CampaignWorkload w;
    w.manifest.pairs = workload::spec::evaluationPairs();
    permute(w.manifest.pairs, a.seed);
    w.manifest.levels = EvaluationSweep::standardLevels();
    w.manifest.rc = runConfig(campaignScale);
    w.key = service::campaignFromManifest(w.manifest).journalKey();
    w.dir = a.tmp + "/campaign-" + std::to_string(::getpid()) + "-" +
        std::to_string(rep_index);
    fs::remove_all(w.dir);
    fs::create_directories(w.dir);
    w.queueDir = w.dir + "/queue";
    w.cacheDir = w.dir + "/cache";
    const std::int64_t t0 = nowNs();
    service::SweepService svc(serviceConfig(w.queueDir, w.cacheDir));
    svc.enqueueCampaign(w.manifest);
    service::ResultCache cache;
    cache.open(w.cacheDir);
    w.enqueueS = double(nowNs() - t0) * 1e-9;
    return w;
}

std::map<std::string, std::string>
queuePayloads(const std::string &queue_dir, const std::string &key,
              std::vector<std::string> &errors)
{
    service::JobQueue q;
    q.open(queue_dir, key, service::QueueConfig{});
    std::map<std::string, std::string> out;
    for (const auto &[id, js] : q.snapshot()) {
        if (js.phase == service::JobPhase::Done)
            out[id] = js.payload;
        else
            errors.push_back(id + ": not done (" + js.failClass + ")");
    }
    return out;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/**
 * Run serve() on its own thread while this (otherwise idle) thread
 * samples the process CPU rate, giving pool utilisation and the
 * tail during which fewer than P workers were busy.
 */
service::WorkerStats
serveSampled(service::SweepService &svc, unsigned threads,
             std::map<std::string, double> &out)
{
    service::WorkerStats stats;
    std::exception_ptr err;
    std::atomic<bool> done{false};
    const double cpu0 = cpuSeconds();
    const std::int64_t t0 = nowNs();
    std::thread worker([&] {
        try {
            stats = svc.serve();
        } catch (...) {
            err = std::current_exception();
        }
        done = true;
    });
    std::vector<std::pair<double, double>> samples; // (t, cpu)
    while (!done) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        samples.emplace_back(double(nowNs() - t0) * 1e-9, cpuSeconds());
    }
    worker.join();
    const double wall = double(nowNs() - t0) * 1e-9;
    const double cpu = cpuSeconds() - cpu0;
    if (err)
        std::rethrow_exception(err);
    out["executor.util"] = cpu / (wall * double(threads));
    double tail = 0.0;
    for (std::size_t i = samples.size(); i-- > 1;) {
        const double dt = samples[i].first - samples[i - 1].first;
        const double busy = (samples[i].second - samples[i - 1].second) / dt;
        if (busy >= double(threads) - 0.5)
            break;
        tail += dt;
    }
    out["executor.tail_s"] = tail;
    return stats;
}

/** Median milliseconds of `fn` over every job. */
template <typename Fn>
double
medianMs(std::size_t n, Fn fn)
{
    std::vector<double> ms;
    for (std::size_t i = 0; i < n; ++i) {
        const std::int64_t t0 = nowNs();
        fn(i);
        ms.push_back(double(nowNs() - t0) * 1e-6);
    }
    std::nth_element(ms.begin(), ms.begin() + ms.size() / 2, ms.end());
    return ms[ms.size() / 2];
}

/** Time JobQueue and ResultCache calls directly on scratch
 *  directories, one call per campaign job. */
void
timeQueueAndCache(const CampaignWorkload &w,
                  const std::map<std::string, std::string> &payloads,
                  std::map<std::string, double> &out)
{
    const SweepCampaign campaign =
        service::campaignFromManifest(w.manifest);
    std::vector<service::QueueJob> jobs;
    for (const auto &j : campaign.jobs()) {
        jobs.push_back({j.id, campaign.jobFingerprint(j.id),
                        SweepCampaign::jobSeed(j.id)});
    }
    auto payloadOf = [&](std::size_t i) {
        const auto it = payloads.find(jobs[i].id);
        return it == payloads.end() ? std::string("x") : it->second;
    };

    service::JobQueue q;
    q.open(w.dir + "/scratch-queue", w.key, service::QueueConfig{});
    for (const auto &j : jobs)
        q.enqueue(j);
    std::vector<service::LeaseClaim> claims(jobs.size());
    const std::int64_t epoch = std::int64_t(std::time(nullptr));
    out["queue.claim_ms"] = medianMs(jobs.size(), [&](std::size_t i) {
        q.claim("perfbench", epoch, 600.0, claims[i]);
    });
    out["queue.complete_ms"] = medianMs(jobs.size(), [&](std::size_t i) {
        q.complete(claims[i], payloadOf(i));
    });

    service::ResultCache cache;
    cache.open(w.dir + "/scratch-cache");
    out["result_cache.store_ms"] =
        medianMs(jobs.size(), [&](std::size_t i) {
            cache.store(jobs[i].fingerprint, jobs[i].seed, payloadOf(i));
        });
    std::string got;
    out["result_cache.lookup_ms"] =
        medianMs(jobs.size(), [&](std::size_t i) {
            cache.lookup(jobs[i].fingerprint, jobs[i].seed, got);
        });
}

std::string
campaignCsv(const CampaignResult &agg)
{
    std::ostringstream os;
    writeCampaignCsv(os, agg);
    return os.str();
}

/** Cold drain + aggregate, then a warm drain from a fresh queue. */
Rep
runCampaign(const CampaignWorkload &w, bool traced)
{
    Rep rep;
    const auto cfg = serviceConfig(w.queueDir, w.cacheDir);
    service::SweepService svc(cfg);
    const std::int64_t t0 = nowNs();
    const service::WorkerStats cold =
        traced ? serveSampled(svc, cfg.threads, rep.service) : svc.serve();
    const std::int64_t t1 = nowNs();
    const CampaignResult agg = svc.aggregate();
    const std::int64_t t2 = nowNs();

    const std::string warmQueue = w.dir + "/queue-warm";
    service::SweepService warmSvc(serviceConfig(warmQueue, w.cacheDir));
    warmSvc.enqueueCampaign(w.manifest);
    const service::WorkerStats warm = warmSvc.serve();
    const CampaignResult warmAgg = warmSvc.aggregate();
    const std::int64_t t3 = nowNs();
    rep.wallS = double(t3 - t0) * 1e-9;

    if (traced) {
        rep.service["service.enqueue_s"] = w.enqueueS;
        rep.service["service.serve_s"] = double(t1 - t0) * 1e-9;
        rep.service["service.aggregate_s"] = double(t2 - t1) * 1e-9;
        rep.service["service.warm_drain_s"] = double(t3 - t2) * 1e-9;
    }

    rep.payloads = queuePayloads(w.queueDir, w.key, rep.errors);
    const auto warmPayloads = queuePayloads(warmQueue, w.key, rep.errors);
    const unsigned jobs = unsigned(
        service::campaignFromManifest(w.manifest).jobs().size());
    rep.attempted = 2 * jobs;
    if (cold.completed != jobs || cold.failed != 0)
        rep.errors.push_back("cold drain completed " +
                             std::to_string(cold.completed) + "/" +
                             std::to_string(jobs));
    if (cold.fromCache != 0)
        rep.errors.push_back("cold drain served " +
                             std::to_string(cold.fromCache) +
                             " job(s) from the cache");
    if (warm.completed != jobs || warm.fromCache != warm.completed)
        rep.errors.push_back("warm drain: " +
                             std::to_string(warm.fromCache) + " of " +
                             std::to_string(warm.completed) +
                             " from the cache, expected " +
                             std::to_string(jobs));
    if (warmPayloads != rep.payloads)
        rep.errors.push_back("warm drain payloads differ from cold");
    for (const auto &m : agg.missing)
        rep.errors.push_back(m.marker());
    rep.csv = campaignCsv(agg);
    if (campaignCsv(warmAgg) != rep.csv)
        rep.errors.push_back("warm drain CSV differs from cold");

    for (const auto &[id, p] : rep.payloads)
        rep.instrs += payloadInstrs(id, p);
    for (const auto &pr : agg.results) {
        for (const auto &l : pr.levels) {
            rep.pairs.push_back({pr.label(), l.targetF, l.speedupOverSt,
                                 l.fairness, l.run.ipcTotal});
        }
    }
    if (traced)
        timeQueueAndCache(w, rep.payloads, rep.service);
    return rep;
}

// ---- Output -----------------------------------------------------------

std::string
fingerprintJson()
{
    const bool audit = SOEFAIR_AUDIT_ENABLED != 0;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    const bool sanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    const bool sanitized = true;
#else
    const bool sanitized = false;
#endif
#else
    const bool sanitized = false;
#endif
    const std::string buildType = PERFBENCH_BUILD_TYPE;
    const bool comparable = buildType != "Debug" && buildType != "" &&
        !audit && !sanitized;
    std::ostringstream os;
    os << "{\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"compiler\":" << quote(PERFBENCH_CXX_ID)
       << ",\"build_type\":" << quote(buildType)
       << ",\"audit\":" << (audit ? "true" : "false")
       << ",\"sanitizer\":" << (sanitized ? "true" : "false")
       << ",\"comparable\":" << (comparable ? "true" : "false") << "}";
    return os.str();
}

std::string
repJson(const Rep &r, bool full)
{
    std::ostringstream os;
    os << "{\"wall_s\":" << num(r.wallS) << ",\"instrs\":" << r.instrs
       << ",\"attempted\":" << r.attempted << ",\"errors\":[";
    for (std::size_t i = 0; i < r.errors.size(); ++i)
        os << (i ? "," : "") << quote(r.errors[i]);
    os << "]";
    if (full) {
        os << ",\"payloads\":{";
        bool first = true;
        for (const auto &[id, p] : r.payloads) {
            os << (first ? "" : ",") << quote(id) << ":" << quote(p);
            first = false;
        }
        os << "},\"csv\":" << quote(r.csv) << ",\"pairs\":[";
        for (std::size_t i = 0; i < r.pairs.size(); ++i) {
            const auto &p = r.pairs[i];
            os << (i ? "," : "") << "{\"pair\":" << quote(p.pair)
               << ",\"F\":" << num(p.f)
               << ",\"speedup_over_st\":" << num(p.speedupOverSt)
               << ",\"fairness\":" << num(p.fairness)
               << ",\"ipc_total\":" << num(p.ipcTotal) << "}";
        }
        os << "]";
    }
    os << "}";
    return os.str();
}

std::string
layersJson(const perfbench::LayerTotals &t, const perfbench::SpanLog &log,
           const std::map<std::string, double> &service)
{
    std::ostringstream os;
    // Quantiles of the per-call histogram.
    auto quantile = [&](double q) {
        const auto target = std::uint64_t(q * double(t.soeCalls));
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < t.soeHist.size(); ++i) {
            seen += t.soeHist[i];
            if (seen > target)
                return double(i);
        }
        return double(t.soeHist.size() - 1);
    };
    os << "{\"cycles\":" << t.cycles << ",\"ff_cycles\":" << t.ffCycles
       << ",\"soe_calls\":" << t.soeCalls << ",\"soe_ns\":" << t.soeNs
       << ",\"soe_p50_ns\":" << num(t.soeCalls ? quantile(0.5) : 0.0)
       << ",\"soe_p99_ns\":" << num(t.soeCalls ? quantile(0.99) : 0.0)
       << ",\"clock_ns\":" << perfbench::clockOverheadNs()
       << ",\"step_generated\":" << t.stepGenerated
       << ",\"replay_ops\":" << t.replayOps
       << ",\"replay_gen_ns\":" << t.replayGenNs
       << ",\"replay_fetches\":" << t.replayFetches
       << ",\"replay_fetch_ns\":" << t.replayFetchNs
       << ",\"replay_accesses\":" << t.replayAccesses
       << ",\"replay_access_ns\":" << t.replayAccessNs << ",\"stats\":{";
    bool first = true;
    for (const auto &[k, v] : t.stats) {
        os << (first ? "" : ",") << quote(k) << ":" << num(v);
        first = false;
    }
    os << "},\"service\":{";
    first = true;
    for (const auto &[k, v] : service) {
        os << (first ? "" : ",") << quote(k) << ":" << num(v);
        first = false;
    }
    os << "},\"spans\":[";
    const auto &spans = log.all();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto &s = spans[i];
        os << (i ? "," : "") << "{\"name\":" << quote(s.name)
           << ",\"start\":" << s.start << ",\"end\":" << s.end
           << ",\"parent\":" << s.parent << ",\"cell\":" << quote(s.cell)
           << "}";
    }
    os << "]}";
    return os.str();
}

std::optional<Args>
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--setup-only") {
            a.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            return std::nullopt;
        const std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--tmp")
            a.tmp = v;
        else
            return std::nullopt;
    }
    if ((a.workload != "starved" && a.workload != "enforced" &&
         a.workload != "campaign") ||
        a.tmp.empty() || !(a.seconds > 0.0))
        return std::nullopt;
    return a;
}

int
run(const Args &a)
{
    const bool campaign = a.workload == "campaign";
    std::optional<CellWorkload> cells;
    std::optional<CampaignWorkload> camp;
    if (campaign)
        camp = setupCampaign(a, 0);
    else
        cells = setupCells(a);
    const std::int64_t setupStamp = nowNs();
    if (a.setupOnly) {
        if (camp)
            fs::remove_all(camp->dir);
        std::cout << "{\"setup_stamp_ns\":" << setupStamp << "}\n";
        return 0;
    }

    std::vector<Rep> reps;
    const std::int64_t start = nowNs();
    auto runOnce = [&](bool traced, perfbench::SpanLog *log,
                       perfbench::LayerTotals *tot) {
        if (campaign) {
            if (!reps.empty() || traced)
                camp = setupCampaign(a, unsigned(reps.size()) + 1);
            Rep r = runCampaign(*camp, traced);
            fs::remove_all(camp->dir);
            return r;
        }
        return runCells(*cells, log, tot);
    };

    perfbench::SpanLog log;
    perfbench::LayerTotals tot;
    std::optional<Rep> tracedRep;
    if (a.trace) {
        reps.push_back(runOnce(false, nullptr, nullptr));
        tracedRep = runOnce(true, &log, &tot);
    } else {
        do {
            reps.push_back(runOnce(false, nullptr, nullptr));
        } while (reps.size() < minReps ||
                 double(nowNs() - start) * 1e-9 < a.seconds);
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    std::ostringstream os;
    os << "{\"workload\":" << quote(a.workload) << ",\"seed\":" << a.seed
       << ",\"setup_stamp_ns\":" << setupStamp
       << ",\"peak_rss_kb\":" << ru.ru_maxrss
       << ",\"fingerprint\":" << fingerprintJson() << ",\"reps\":[";
    for (std::size_t i = 0; i < reps.size(); ++i)
        os << (i ? "," : "") << repJson(reps[i], true);
    os << "]";
    if (tracedRep) {
        os << ",\"traced\":" << repJson(*tracedRep, true)
           << ",\"layers\":" << layersJson(tot, log, tracedRep->service);
    }
    os << "}\n";
    std::cout << os.str();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto args = parseArgs(argc, argv);
    if (!args) {
        std::cerr << "usage: perfbench --workload "
                     "starved|enforced|campaign --seed N --seconds S "
                     "--trace 0|1 --tmp DIR [--setup-only]\n";
        return 2;
    }
    if (const auto name = envConflict()) {
        std::cerr << "perfbench: refusing to run with " << *name
                  << " set; the benchmark fixes its own inputs\n";
        return 3;
    }
    try {
        return run(*args);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
