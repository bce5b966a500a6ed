#include "harness/sweep.hh"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "core/metrics.hh"
#include "sim/errors.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "soe/policies.hh"
#include "stats/statfmt.hh"

namespace soefair
{
namespace harness
{

std::uint64_t
pairSeed(unsigned idx)
{
    return deriveSeed(0x50EFA1Full, idx + 1);
}

std::uint64_t
attemptSeed(std::uint64_t seed, unsigned attempt)
{
    return attempt <= 1 ? seed : deriveSeed(seed, 1000 + attempt);
}

const LevelResult &
PairResult::level(double f) const
{
    for (const auto &l : levels) {
        if (l.targetF == f)
            return l;
    }
    fatal("no level F=", f, " for pair ", label());
}

EvaluationSweep::EvaluationSweep(const MachineConfig &machine,
                                 const RunConfig &run_config)
    : runner(machine), rc(run_config)
{
}

std::vector<double>
EvaluationSweep::standardLevels()
{
    return {0.0, 0.25, 0.5, 1.0};
}

StRunResult &
EvaluationSweep::singleThread(const std::string &bench,
                              std::uint64_t seed,
                              std::ostream *progress)
{
    auto key = std::make_pair(bench, seed);
    auto it = stCache.find(key);
    if (it != stCache.end())
        return it->second;
    if (progress)
        *progress << "  [ST]  " << bench << std::endl;
    StRunResult res = runner.runSingleThread(
        ThreadSpec::benchmark(bench, seed), rc);
    return stCache.emplace(key, std::move(res)).first->second;
}

PairResult
EvaluationSweep::runPair(const std::string &bench_a,
                         const std::string &bench_b,
                         const std::vector<double> &f_levels,
                         std::ostream *progress)
{
    PairResult pr;
    pr.nameA = bench_a;
    pr.nameB = bench_b;

    const std::uint64_t seedA = pairSeed(0);
    const std::uint64_t seedB =
        bench_a == bench_b ? pairSeed(1) : pairSeed(0);

    pr.stA = singleThread(bench_a, seedA, progress);
    pr.stB = singleThread(bench_b, seedB, progress);

    const std::vector<ThreadSpec> specs = {
        ThreadSpec::benchmark(bench_a, seedA),
        ThreadSpec::benchmark(bench_b, seedB),
    };

    for (double f : f_levels) {
        if (progress) {
            *progress << "  [SOE] " << pr.label() << " F="
                      << statistics::statfmt::csv(f) << std::endl;
        }
        LevelResult lr;
        lr.targetF = f;
        if (f <= 0.0) {
            soe::MissOnlyPolicy policy;
            lr.run = runner.runSoe(specs, policy, rc);
        } else {
            soe::FairnessPolicy policy(
                f, runner.machine().soe.missLatency, 2);
            lr.run = runner.runSoe(specs, policy, rc);
        }

        lr.speedups = {lr.run.threads[0].ipc / pr.stA.ipc,
                       lr.run.threads[1].ipc / pr.stB.ipc};
        lr.fairness = core::fairnessOfSpeedups(lr.speedups);
        const double stMean = 0.5 * (pr.stA.ipc + pr.stB.ipc);
        lr.speedupOverSt = lr.run.ipcTotal / stMean;
        pr.levels.push_back(std::move(lr));
    }
    return pr;
}

void
savePairResults(const std::string &path, const std::string &key,
                const std::vector<PairResult> &results)
{
    std::ofstream os(path);
    if (!os) {
        warn("cannot write sweep cache '", path, "'");
        return;
    }
    using statistics::statfmt::full;
    os << key << "\n";
    os << results.size() << "\n";
    for (const auto &pr : results) {
        os << pr.nameA << " " << pr.nameB << " " << full(pr.stA.ipc)
           << " " << full(pr.stB.ipc) << " " << pr.levels.size()
           << "\n";
        for (const auto &l : pr.levels) {
            os << full(l.targetF) << " "
               << full(l.run.threads[0].ipc) << " "
               << full(l.run.threads[1].ipc) << " "
               << full(l.run.ipcTotal) << " " << full(l.fairness)
               << " " << full(l.speedupOverSt) << " "
               << l.run.cycles << " " << l.run.switchesMiss << " "
               << l.run.switchesForced << " " << l.run.switchesQuota
               << "\n";
        }
    }
}

bool
loadPairResults(const std::string &path, const std::string &key,
                std::vector<PairResult> &results)
{
    std::ifstream is(path);
    if (!is)
        return false;
    std::string header;
    if (!std::getline(is, header) || header != key)
        return false;

    std::size_t numPairs = 0;
    is >> numPairs;
    if (!is || numPairs == 0 || numPairs > 1000)
        return false;
    results.clear();
    for (std::size_t i = 0; i < numPairs; ++i) {
        PairResult pr;
        std::size_t numLevels = 0;
        is >> pr.nameA >> pr.nameB >> pr.stA.ipc >> pr.stB.ipc
           >> numLevels;
        if (!is || numLevels > 32)
            return false;
        for (std::size_t j = 0; j < numLevels; ++j) {
            LevelResult l;
            l.run.threads.resize(2);
            is >> l.targetF >> l.run.threads[0].ipc
               >> l.run.threads[1].ipc >> l.run.ipcTotal >> l.fairness
               >> l.speedupOverSt >> l.run.cycles
               >> l.run.switchesMiss >> l.run.switchesForced
               >> l.run.switchesQuota;
            if (!is)
                return false;
            l.speedups = {l.run.threads[0].ipc / pr.stA.ipc,
                          l.run.threads[1].ipc / pr.stB.ipc};
            pr.levels.push_back(std::move(l));
        }
        results.push_back(std::move(pr));
    }
    return true;
}

namespace
{

void
writeCsvHeader(std::ostream &os)
{
    os << "pair,F,ipcST_A,ipcST_B,ipcA,ipcB,ipcTotal,fairness,"
       << "speedupOverST,cycles,switchesMiss,switchesForced,"
       << "switchesQuota\n";
}

void
writeCsvRow(std::ostream &os, const PairResult &pr,
            const LevelResult &l)
{
    using statistics::statfmt::csv;
    os << pr.label() << ',' << csv(l.targetF) << ','
       << csv(pr.stA.ipc) << ',' << csv(pr.stB.ipc) << ','
       << csv(l.run.threads[0].ipc) << ','
       << csv(l.run.threads[1].ipc) << ',' << csv(l.run.ipcTotal)
       << ',' << csv(l.fairness) << ',' << csv(l.speedupOverSt)
       << ',' << l.run.cycles << ',' << l.run.switchesMiss << ','
       << l.run.switchesForced << ',' << l.run.switchesQuota << "\n";
}

} // namespace

void
writePairResultsCsv(std::ostream &os,
                    const std::vector<PairResult> &results)
{
    writeCsvHeader(os);
    for (const auto &pr : results) {
        for (const auto &l : pr.levels)
            writeCsvRow(os, pr, l);
    }
}

void
writeCampaignCsv(std::ostream &os, const CampaignResult &agg)
{
    writeCsvHeader(os);
    for (const auto &pr : agg.results) {
        for (const auto &l : pr.levels)
            writeCsvRow(os, pr, l);
    }
    for (const auto &m : agg.missing)
        os << m.marker() << "\n";
}

int
CampaignResult::exitCode() const
{
    if (complete())
        return 0;
    return results.empty() ? exitCampaignFailed
                           : exitCampaignPartial;
}

std::vector<PairResult>
EvaluationSweep::runEvaluation(std::ostream *progress)
{
    std::vector<PairResult> results;
    for (const auto &[a, b] : workload::spec::evaluationPairs()) {
        if (progress)
            *progress << "pair " << a << ":" << b << std::endl;
        results.push_back(runPair(a, b, standardLevels(), progress));
    }
    return results;
}

namespace
{

/** Seeds of a pair's two threads (same rule as runPair). */
std::pair<std::uint64_t, std::uint64_t>
pairSeeds(const std::string &a, const std::string &b)
{
    return {pairSeed(0), a == b ? pairSeed(1) : pairSeed(0)};
}

std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
failureReason(const JobOutcome &o)
{
    return o.failClass + " after " + std::to_string(o.attempts) +
           " attempt(s)";
}

} // namespace

SweepCampaign::SweepCampaign(
    const MachineConfig &machine, const RunConfig &run_config,
    std::vector<std::pair<std::string, std::string>> pairs,
    std::vector<double> f_levels)
    : mc(machine), rc(run_config), pairList(std::move(pairs)),
      fLevels(std::move(f_levels))
{
    mc.validate();
}

void
SweepCampaign::setAttemptHook(
    std::function<void(const std::string &, unsigned)> hook)
{
    attemptHook = std::move(hook);
}

std::string
SweepCampaign::levelLabel(double f)
{
    return statistics::statfmt::csv(f);
}

std::string
SweepCampaign::stJobId(const std::string &bench, std::uint64_t seed)
{
    return "st:" + bench + ":" + std::to_string(seed);
}

std::string
SweepCampaign::soeJobId(const std::string &bench_a,
                        const std::string &bench_b, double f)
{
    return "soe:" + bench_a + ":" + bench_b + ":F=" + levelLabel(f);
}

std::vector<SweepCampaign::StJob>
SweepCampaign::stJobList() const
{
    std::vector<StJob> out;
    auto add = [&](const std::string &bench, std::uint64_t seed) {
        for (const auto &j : out) {
            if (j.bench == bench && j.seed == seed)
                return;
        }
        out.push_back({bench, seed});
    };
    for (const auto &[a, b] : pairList) {
        const auto [seedA, seedB] = pairSeeds(a, b);
        add(a, seedA);
        add(b, seedB);
    }
    return out;
}

std::string
SweepCampaign::journalKey() const
{
    std::ostringstream machineText;
    mc.print(machineText);
    std::ostringstream os;
    os << "sweep-campaign-v1 machine=" << std::hex
       << fnv1a64(machineText.str()) << std::dec
       << " measure=" << rc.measureInstrs
       << " warm=" << rc.warmupInstrs
       << " twarm=" << rc.timingWarmInstrs
       << " maxcyc=" << rc.maxCycles << " pairs=";
    for (const auto &[a, b] : pairList)
        os << a << ":" << b << "|";
    os << " levels=";
    for (double f : fLevels)
        os << statistics::statfmt::full(f) << ",";
    return os.str();
}

std::string
SweepCampaign::jobFingerprint(const std::string &job_id) const
{
    std::ostringstream machineText;
    mc.print(machineText);
    std::ostringstream os;
    os << "sweep-job-v1 machine=" << std::hex
       << fnv1a64(machineText.str()) << std::dec
       << " measure=" << rc.measureInstrs
       << " warm=" << rc.warmupInstrs
       << " twarm=" << rc.timingWarmInstrs
       << " maxcyc=" << rc.maxCycles
       << " job=" << job_id;
    std::ostringstream fp;
    fp << std::hex << fnv1a64(os.str());
    return fp.str();
}

std::uint64_t
SweepCampaign::jobSeed(const std::string &job_id)
{
    // Single-thread jobs embed their seed ("st:<bench>:<seed>");
    // SOE jobs derive both thread seeds from pairSeed via the job
    // id, so their attempts key off the shared base seed.
    if (job_id.rfind("st:", 0) == 0) {
        const auto colon = job_id.rfind(':');
        return std::strtoull(job_id.c_str() + colon + 1, nullptr,
                             10);
    }
    return pairSeed(0);
}

std::vector<CampaignJob>
SweepCampaign::jobs() const
{
    std::vector<CampaignJob> out;
    const auto hook = attemptHook;

    for (const auto &st : stJobList()) {
        CampaignJob j;
        j.id = stJobId(st.bench, st.seed);
        j.run = [mc = mc, rc = rc, st, hook,
                 id = j.id](unsigned attempt) {
            if (hook)
                hook(id, attempt);
            Runner runner(mc);
            StRunResult r = runner.runSingleThread(
                ThreadSpec::benchmark(
                    st.bench, attemptSeed(st.seed, attempt)),
                rc);
            return encodeStPayload(r);
        };
        out.push_back(std::move(j));
    }

    for (const auto &[a, b] : pairList) {
        const auto [seedA, seedB] = pairSeeds(a, b);
        for (double f : fLevels) {
            CampaignJob j;
            j.id = soeJobId(a, b, f);
            j.run = [mc = mc, rc = rc, a = a, b = b, seedA, seedB, f,
                     hook, id = j.id](unsigned attempt) {
                if (hook)
                    hook(id, attempt);
                Runner runner(mc);
                const std::vector<ThreadSpec> specs = {
                    ThreadSpec::benchmark(
                        a, attemptSeed(seedA, attempt)),
                    ThreadSpec::benchmark(
                        b, attemptSeed(seedB, attempt)),
                };
                SoeRunResult r;
                if (f <= 0.0) {
                    soe::MissOnlyPolicy policy;
                    r = runner.runSoe(specs, policy, rc);
                } else {
                    soe::FairnessPolicy policy(
                        f, mc.soe.missLatency, 2);
                    r = runner.runSoe(specs, policy, rc);
                }
                return encodeSoePayload(r);
            };
            out.push_back(std::move(j));
        }
    }
    return out;
}

CampaignResult
SweepCampaign::aggregate(
    const std::vector<JobOutcome> &outcomes) const
{
    std::map<std::string, const JobOutcome *> byId;
    for (const auto &o : outcomes)
        byId[o.id] = &o;
    auto find = [&](const std::string &id) -> const JobOutcome * {
        auto it = byId.find(id);
        return it == byId.end() ? nullptr : it->second;
    };

    CampaignResult agg;
    for (const auto &[a, b] : pairList) {
        const auto [seedA, seedB] = pairSeeds(a, b);
        PairResult pr;
        pr.nameA = a;
        pr.nameB = b;

        bool stOk = true;
        auto loadSt = [&](const std::string &bench,
                          std::uint64_t seed, StRunResult &dst) {
            const JobOutcome *o = find(stJobId(bench, seed));
            if (!o || !o->done) {
                agg.missing.push_back(
                    {pr.label(), "ST:" + bench,
                     o ? failureReason(*o) : "job not scheduled"});
                stOk = false;
                return;
            }
            if (!decodeStPayload(o->payload, dst)) {
                raiseError<CheckpointError>(
                    "corrupt payload for job '", o->id,
                    "': '", o->payload, "'");
            }
        };
        loadSt(a, seedA, pr.stA);
        loadSt(b, seedB, pr.stB);

        for (double f : fLevels) {
            const JobOutcome *o = find(soeJobId(a, b, f));
            if (!o || !o->done) {
                agg.missing.push_back(
                    {pr.label(), "F=" + levelLabel(f),
                     o ? failureReason(*o) : "job not scheduled"});
                continue;
            }
            if (!stOk) {
                // The SOE run completed but its speedups need the
                // single-thread baselines: still a visible gap.
                agg.missing.push_back({pr.label(),
                                       "F=" + levelLabel(f),
                                       "baseline missing"});
                continue;
            }
            LevelResult lr;
            lr.targetF = f;
            if (!decodeSoePayload(o->payload, lr.run) ||
                lr.run.threads.size() != 2) {
                raiseError<CheckpointError>(
                    "corrupt payload for job '", o->id,
                    "': '", o->payload, "'");
            }
            lr.speedups = {lr.run.threads[0].ipc / pr.stA.ipc,
                           lr.run.threads[1].ipc / pr.stB.ipc};
            lr.fairness = core::fairnessOfSpeedups(lr.speedups);
            const double stMean = 0.5 * (pr.stA.ipc + pr.stB.ipc);
            lr.speedupOverSt = lr.run.ipcTotal / stMean;
            pr.levels.push_back(std::move(lr));
        }
        if (stOk && !pr.levels.empty())
            agg.results.push_back(std::move(pr));
    }
    return agg;
}

} // namespace harness
} // namespace soefair
