#include "eval_common.hh"

#include <filesystem>
#include <iostream>
#include <set>

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

/**
 * Directory holding every eval artifact (durable queue, result
 * cache). Defaults to build/ so the repo root stays clean;
 * SOEFAIR_EVAL_DIR relocates it (CI points it at scratch).
 */
std::string
evalDir()
{
    const std::string dir = env::getOr("SOEFAIR_EVAL_DIR", "build");
    std::filesystem::create_directories(dir);
    return dir;
}

/** Drain the campaign through the local durable job service. */
CampaignResult
drainLocally(const service::CampaignManifest &manifest)
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
              << ")...\n";
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

    CampaignResult agg = drainLocally(manifest);

    // Figure drivers index every standard level, so only fully
    // complete pairs are safe to hand them.
    EvalData data;
    std::set<std::string> incomplete;
    for (const auto &m : agg.missing)
        incomplete.insert(m.pair);
    for (auto &pr : agg.results) {
        if (!incomplete.count(pr.label()))
            data.pairs.push_back(std::move(pr));
    }
    data.missing = std::move(agg.missing);

    if (!data.complete()) {
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
