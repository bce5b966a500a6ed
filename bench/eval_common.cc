#include "eval_common.hh"

#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>

#include "harness/env.hh"
#include "harness/service/service.hh"
#include "sim/errors.hh"
#include "sim/logging.hh"
#include "workload/profile.hh"

namespace soefair
{
namespace bench
{

using namespace harness;

namespace
{

constexpr const char *cacheVersion = "soefair-eval-v2";

/**
 * Directory holding every eval artifact (dataset cache, durable
 * queue, result cache). Defaults to build/ so the repo root stays
 * clean; SOEFAIR_EVAL_DIR relocates it (CI points it at scratch).
 */
std::string
evalDir()
{
    const std::string dir = env::getOr("SOEFAIR_EVAL_DIR", "build");
    std::filesystem::create_directories(dir);
    return dir;
}

std::string
cachePath()
{
    return evalDir() + "/soefair_eval_cache.txt";
}

/**
 * Key guarding the assembled-dataset cache file. It embeds the
 * campaign's full configuration fingerprint (machine + run
 * parameters + pairs + levels), so *any* configuration change —
 * not just the handful of fields the v1 key sampled — invalidates
 * the cache instead of silently serving stale results.
 */
std::string
configKey(const SweepCampaign &campaign)
{
    return std::string(cacheVersion) + " " + campaign.journalKey();
}

} // namespace

MachineConfig
evalMachine()
{
    return MachineConfig::benchDefault();
}

RunConfig
evalRunConfig()
{
    return RunConfig::fromEnv();
}

std::vector<double>
levels()
{
    return EvaluationSweep::standardLevels();
}

namespace
{

/** Drain the campaign through the local durable job service. */
CampaignResult
drainLocally(const service::CampaignManifest &manifest,
             const std::string &cache_file)
{
    const std::string queueDir = evalDir() + "/soefair_eval_queue";
    const std::string resultCacheDir =
        evalDir() + "/soefair_eval_rcache";

    // Jobs live in a crash-safe queue and results in the verified
    // content-addressed cache, so a killed bench — or a second
    // figure driver — resumes and is served from the cache instead
    // of re-simulating.
    service::ServiceConfig cfg;
    cfg.queueDir = queueDir;
    cfg.cacheDir = resultCacheDir;
    cfg.workerName = "eval";
    cfg.deadlineSeconds = 3600.0;
    cfg.leaseSeconds = 300.0;
    cfg.progress = &std::cerr;
    cfg.slots = env::resolveUnsigned(std::nullopt,
                                     "SOEFAIR_EVAL_JOBS", cfg.slots);
    // Threaded drain (SOEFAIR_EVAL_THREADS=N): first attempts run
    // in-process, one job per idle thread; retries fall back to the
    // fork loop. Output is byte-identical either way.
    cfg.threads = env::resolveUnsigned(
        std::nullopt, "SOEFAIR_EVAL_THREADS", cfg.threads);

    service::SweepService svc(cfg);
    try {
        svc.enqueueCampaign(manifest);
    } catch (const CheckpointError &e) {
        // A queue left by a different configuration (e.g. another
        // SOEFAIR_SCALE): its results are unusable here, so start
        // over. The result cache stays — it is content-addressed.
        warn("replacing incompatible eval queue '", queueDir,
             "': ", e.what());
        std::filesystem::remove_all(queueDir);
        svc.enqueueCampaign(manifest);
    }
    std::cerr << "[eval] draining the evaluation sweep (queue: "
              << queueDir << ", result cache: " << resultCacheDir
              << ", dataset cache: " << cache_file << ")...\n";
    svc.serve();
    return svc.aggregate();
}

} // namespace

EvalData
evaluationData()
{
    service::CampaignManifest manifest;
    manifest.pairs = workload::spec::evaluationPairs();
    manifest.levels = levels();
    manifest.rc = evalRunConfig();

    SweepCampaign campaign = service::campaignFromManifest(manifest);

    EvalData data;
    const std::string cacheFile = cachePath();
    if (loadPairResults(cacheFile, configKey(campaign), data.pairs)) {
        std::cerr << "[eval] loaded cached sweep from " << cacheFile
                  << "\n";
        return data;
    }

    CampaignResult agg = drainLocally(manifest, cacheFile);

    // Figure drivers index every standard level, so only fully
    // complete pairs are safe to hand them.
    std::set<std::string> incomplete;
    for (const auto &m : agg.missing)
        incomplete.insert(m.pair);
    for (auto &pr : agg.results) {
        if (!incomplete.count(pr.label()))
            data.pairs.push_back(std::move(pr));
    }
    data.missing = std::move(agg.missing);

    if (data.complete()) {
        savePairResults(cacheFile, configKey(campaign), data.pairs);
    } else {
        warn("evaluation sweep is PARTIAL (", data.missing.size(),
             " cell(s) missing); re-run to resume");
    }
    return data;
}

std::vector<PairResult>
evaluationResults()
{
    EvalData data = evaluationData();
    for (const auto &m : data.missing)
        warn("evaluation gap: ", m.marker());
    return data.pairs;
}

} // namespace bench
} // namespace soefair
