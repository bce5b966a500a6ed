/**
 * @file
 * The paper's evaluation sweep: the 16 two-thread benchmark
 * combinations, each run single-threaded and under SOE at several
 * enforcement levels (F = 0, 1/4, 1/2, 1). Figures 6, 7 and 8 are
 * different projections of this one dataset.
 */

#ifndef SOEFAIR_HARNESS_SWEEP_HH
#define SOEFAIR_HARNESS_SWEEP_HH

#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "harness/job_exit.hh"
#include "harness/runner.hh"

namespace soefair
{
namespace harness
{

/** One pair at one enforcement level. */
struct LevelResult
{
    double targetF = 0.0;
    SoeRunResult run;
    /** Speedups IPC_SOE_j / IPC_ST_j. */
    std::vector<double> speedups;
    /** Achieved fairness (Eq. 4) from real single-thread IPCs. */
    double fairness = 0.0;
    /** Total throughput / mean single-thread IPC. */
    double speedupOverSt = 0.0;
};

/** One benchmark pair across every enforcement level. */
struct PairResult
{
    std::string nameA;
    std::string nameB;
    StRunResult stA;
    StRunResult stB;
    std::vector<LevelResult> levels;

    std::string label() const { return nameA + ":" + nameB; }
    const LevelResult &level(double f) const;
};

/**
 * Evaluation driver. Single-thread reference runs are cached by
 * (benchmark, seed) so homogeneous pairs and repeated benchmarks do
 * not re-simulate them.
 */
class EvaluationSweep
{
  public:
    EvaluationSweep(const MachineConfig &machine, const RunConfig &rc);

    /**
     * Run one pair at the given F levels (F = 0 means the miss-only
     * policy). @param progress Optional stream for progress lines.
     */
    PairResult runPair(const std::string &bench_a,
                       const std::string &bench_b,
                       const std::vector<double> &f_levels,
                       std::ostream *progress = nullptr);

    /** Run the paper's 16 pairs at the standard four levels. */
    std::vector<PairResult> runEvaluation(
        std::ostream *progress = nullptr);

    /** The standard enforcement levels: 0, 1/4, 1/2, 1. */
    static std::vector<double> standardLevels();

    const RunConfig &runConfig() const { return rc; }

  private:
    StRunResult &singleThread(const std::string &bench,
                              std::uint64_t seed,
                              std::ostream *progress);

    Runner runner;
    RunConfig rc;
    std::map<std::pair<std::string, std::uint64_t>, StRunResult>
        stCache;
};

/** Seed used for thread `idx` of a pair (homogeneous pairs get
 *  decorrelated streams, the paper's 1M-instruction offset). */
std::uint64_t pairSeed(unsigned idx);

/**
 * Jittered reseeding for retried attempts: attempt 1 runs at the
 * base seed, attempt k >= 2 at deriveSeed(seed, 1000 + k), so a
 * deterministic livelock at the base seed still has a chance to
 * complete on retry. Pinned by tests: the schedule is part of the
 * resume/replay determinism contract (a cached or queued result is
 * only substitutable for re-simulation if the re-simulation would
 * have used the same seed).
 */
std::uint64_t attemptSeed(std::uint64_t seed, unsigned attempt);

/** Write the per-level results as CSV (machine-readable sweeps). */
void writePairResultsCsv(std::ostream &os,
                         const std::vector<PairResult> &results);

/** An evaluation cell the campaign could not produce. */
struct MissingCell
{
    std::string pair;   ///< "a:b" label of the owning pair
    std::string what;   ///< "ST:<bench>" or "F=<level>"
    std::string reason; ///< e.g. "watchdog after 3 attempt(s)"

    /** The explicit gap marker emitted in CSV/table output. */
    std::string marker() const
    {
        return "MISSING(" + pair + "," + what + "," + reason + ")";
    }
};

/** One unit of crash-isolated campaign work. */
struct CampaignJob
{
    std::string id;
    /**
     * Job body. Returns the result payload; `attempt` is 1-based and
     * retried attempts derive their seed from it (attemptSeed).
     * Throwing a SimError fails the attempt with that class's exit
     * code (runJobBody).
     */
    std::function<std::string(unsigned attempt)> run;
};

/** Final state of one campaign job, the input of aggregation. */
struct JobOutcome
{
    std::string id;
    bool done = false;
    std::string payload;
    /** Failure class when !done (see job_exit.hh), or "pending" /
     *  "leased" for a job the queue has not finished. */
    std::string failClass;
    std::string detail;
    unsigned attempts = 0;
};

/**
 * Outcome of a campaign: every completed cell, assembled
 * into PairResults (levels may be sparse; a pair whose baselines
 * failed is omitted entirely), plus an explicit entry for every gap.
 */
struct CampaignResult
{
    std::vector<PairResult> results;
    std::vector<MissingCell> missing;

    bool complete() const { return missing.empty(); }
    /** 0 complete, 20 partial, 21 when nothing completed. */
    int exitCode() const;
};

/**
 * Write campaign results as CSV: the usual rows for completed cells
 * followed by one `MISSING(pair,cell,reason)` line per gap, so
 * partial campaigns degrade visibly instead of silently dropping
 * rows. Complete campaigns produce byte-identical output to
 * writePairResultsCsv.
 */
void writeCampaignCsv(std::ostream &os, const CampaignResult &agg);

/**
 * The paper's evaluation sweep decomposed into independent,
 * crash-isolated jobs for the sweep service (service/service.hh):
 * one job per unique single-thread baseline (bench, seed) — shared
 * by every enforcement level and pair that needs it — and one per
 * pair x level. Job results round-trip through the durable queue,
 * so a resumed campaign aggregates byte-identically to an
 * uninterrupted one.
 */
class SweepCampaign
{
  public:
    SweepCampaign(const MachineConfig &machine, const RunConfig &rc,
                  std::vector<std::pair<std::string, std::string>>
                      pairs,
                  std::vector<double> f_levels);

    /** Configuration fingerprint stored in the queue's segment
     *  headers; opening a queue with a differing key raises
     *  CheckpointError. */
    std::string journalKey() const;

    /**
     * Content-address fingerprint of one job: machine + run
     * parameters + job id, *excluding* the campaign's pair/level
     * lists, so the identical job appearing in two different
     * campaigns shares one result-cache entry. Fast-forward state is
     * excluded too — results are byte-identical either way by
     * contract.
     */
    std::string jobFingerprint(const std::string &job_id) const;

    /** The base seed a job's attempts are derived from (the cache
     *  keys entries on (fingerprint, attemptSeed(jobSeed, k))). */
    static std::uint64_t jobSeed(const std::string &job_id);

    /** The campaign's jobs in deterministic order (baselines
     *  first, then pair x level). */
    std::vector<CampaignJob> jobs() const;

    /** Assemble results from job outcomes, recording a MissingCell
     *  for every cell that did not complete. */
    CampaignResult aggregate(
        const std::vector<JobOutcome> &outcomes) const;

    /**
     * Test hook, invoked at the start of every attempt (in the
     * forked child, or on the pool thread). The fault-injection
     * scenarios use it to hang, kill or typed-fail specific jobs.
     */
    void setAttemptHook(
        std::function<void(const std::string &job_id,
                           unsigned attempt)> hook);

    /** Deterministic label for an enforcement level ("0.25"). */
    static std::string levelLabel(double f);
    static std::string stJobId(const std::string &bench,
                               std::uint64_t seed);
    static std::string soeJobId(const std::string &bench_a,
                                const std::string &bench_b, double f);

  private:
    struct StJob
    {
        std::string bench;
        std::uint64_t seed = 0;
    };
    std::vector<StJob> stJobList() const;

    MachineConfig mc;
    RunConfig rc;
    std::vector<std::pair<std::string, std::string>> pairList;
    std::vector<double> fLevels;
    std::function<void(const std::string &, unsigned)> attemptHook;
};

} // namespace harness
} // namespace soefair

#endif // SOEFAIR_HARNESS_SWEEP_HH
