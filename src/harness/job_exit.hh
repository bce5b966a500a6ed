/**
 * @file
 * How a campaign job attempt ends, and what happens next.
 *
 * Every executor of a campaign job — the forked child of the sweep
 * service's worker loop and the in-process pool thread — runs the
 * job body through runJobBody(), which maps a thrown failure onto
 * the SimError exit-code taxonomy. The worker classifies that code
 * (or, for a forked child, its raw wait status) into a failure
 * class:
 *
 *  - permanent (InputError 10, CheckpointError 13, untyped fatal 1,
 *    usage 2): the job is quarantined at once — retrying
 *    deterministic bad input cannot help;
 *  - transient (EstimatorError 11, WatchdogTimeout 12, internal
 *    panic 3, death by any signal, deadline kill): the job is
 *    retried after backoffSeconds(), at the next attempt number,
 *    until the attempt budget is spent. Retried attempts run at
 *    attemptSeed(seed, attempt) (sweep.hh), so a deterministic
 *    livelock at the base seed may complete on retry.
 *
 * Because both executors share runJobBody and classifyExitCode, an
 * in-thread failure and a forked one commit the identical record.
 */

#ifndef SOEFAIR_HARNESS_JOB_EXIT_HH
#define SOEFAIR_HARNESS_JOB_EXIT_HH

#include <functional>
#include <string>

namespace soefair
{
namespace harness
{

/** Campaign-level process exit codes (`soefair_cli sweep`/`drain`). */
constexpr int exitCampaignPartial = 20; ///< some cells missing
constexpr int exitCampaignFailed = 21;  ///< no cell completed

/**
 * Run one attempt of a job body. Returns the exit code a forked
 * child reports for it: 0 with `payload` set on success, the
 * SimError class's code for a typed failure, 1 for an untyped
 * FatalError and 3 for anything else (internal panic, audit
 * failure).
 */
int runJobBody(const std::function<std::string(unsigned)> &body,
               unsigned attempt, std::string &payload);

/**
 * Classify a raw waitpid(2) status (plus whether the worker killed
 * the child for its deadline) into a failure class, or "" for
 * success.
 */
std::string classifyStatus(int status, bool deadline_kill);

/**
 * Classify a plain exit code ("" for 0): "input", "estimator",
 * "watchdog", "checkpoint", ... for SimError codes, then "fatal",
 * "usage", "panic", or "exit" for anything else.
 */
std::string classifyExitCode(int code);

/** Whether a failure class is worth retrying. */
bool isTransient(const std::string &fail_class);

/**
 * Backoff before the retry that follows transient failure number
 * `failed_attempt` (1-based): base * 2^(failed_attempt - 1)
 * seconds; 0 for failed_attempt 0.
 */
double backoffSeconds(double base, unsigned failed_attempt);

} // namespace harness
} // namespace soefair

#endif // SOEFAIR_HARNESS_JOB_EXIT_HH
