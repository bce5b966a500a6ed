/**
 * @file
 * Structured error taxonomy for the hardened runtime.
 *
 * Every defined failure of a run maps to one typed SimError subclass
 * so that callers (the CLI, the fault-injection harness, tests) can
 * tell *why* a run died without parsing messages:
 *
 *  - InputError:      malformed external input — trace files,
 *                     checkpoints' containers, machine configuration,
 *                     workload parameters. The run never started.
 *  - EstimatorError:  the runtime estimator (Eqs. 11-13) received
 *                     structurally impossible counter samples and
 *                     guardrails were not allowed to degrade.
 *  - WatchdogTimeout: the no-progress watchdog detected a livelock
 *                     or whole-machine starvation (zero retirement
 *                     across K consecutive delta windows).
 *  - CheckpointError: a LIT checkpoint failed to parse (bad magic,
 *                     underrun, trailing bytes).
 *  - ProtocolError:   a network peer spoke garbage — malformed,
 *                     checksum-failing, oversized or wrong-version
 *                     wire frames (harness/service/net).
 *  - QuotaExceeded:   the gateway's admission control refused the
 *                     request (tenant quota / backlog) and the
 *                     client exhausted its RETRY_LATER budget.
 *  - ConnectionLost:  the network peer vanished (connect refused,
 *                     reset, timeout) and retries were exhausted.
 *
 * All SimErrors derive from FatalError, so existing handlers (and
 * tests) that treat bad input as fatal keep working; the CLI maps
 * each class to a distinct exit code (SimError::exitCode()) so
 * scripted callers get the taxonomy too. Internal simulator bugs
 * stay PanicError/AuditError — they are not part of this hierarchy
 * by design: a SimError is a *defined* failure, a panic is not.
 */

#ifndef SOEFAIR_SIM_ERRORS_HH
#define SOEFAIR_SIM_ERRORS_HH

#include <string>

#include "sim/logging.hh"

namespace soefair
{

/** Base of the typed, defined-failure hierarchy. */
class SimError : public FatalError
{
  public:
    enum class Kind
    {
        Input,
        Estimator,
        Watchdog,
        Checkpoint,
        Protocol,
        Quota,
        Connection,
    };

    SimError(Kind kind, const std::string &msg)
        : FatalError(msg), errKind(kind)
    {}

    Kind kind() const { return errKind; }

    /** Distinct process exit code for this class (10..16). */
    int exitCode() const;

    /** Short lowercase class name ("input", "watchdog", ...). */
    const char *kindName() const;

  private:
    Kind errKind;
};

/** Malformed external input (trace, config, workload parameters). */
class InputError : public SimError
{
  public:
    static constexpr int code = 10;
    explicit InputError(const std::string &msg)
        : SimError(Kind::Input, msg)
    {}
};

/** Impossible runtime counter samples reached the estimator. */
class EstimatorError : public SimError
{
  public:
    static constexpr int code = 11;
    explicit EstimatorError(const std::string &msg)
        : SimError(Kind::Estimator, msg)
    {}
};

/** The no-progress watchdog fired (livelock / total starvation). */
class WatchdogTimeout : public SimError
{
  public:
    static constexpr int code = 12;
    explicit WatchdogTimeout(const std::string &msg)
        : SimError(Kind::Watchdog, msg)
    {}
};

/** A checkpoint container failed to parse. */
class CheckpointError : public SimError
{
  public:
    static constexpr int code = 13;
    explicit CheckpointError(const std::string &msg)
        : SimError(Kind::Checkpoint, msg)
    {}
};

/** A network peer violated the wire protocol (bad frame, bad
 *  checksum, oversized message, version mismatch). */
class ProtocolError : public SimError
{
  public:
    static constexpr int code = 14;
    explicit ProtocolError(const std::string &msg)
        : SimError(Kind::Protocol, msg)
    {}
};

/** Gateway admission control refused the request and the client's
 *  RETRY_LATER budget ran out (tenant quota or backlog). */
class QuotaExceeded : public SimError
{
  public:
    static constexpr int code = 15;
    explicit QuotaExceeded(const std::string &msg)
        : SimError(Kind::Quota, msg)
    {}
};

/** The network peer vanished (refused, reset, timed out) and the
 *  retry budget ran out. */
class ConnectionLost : public SimError
{
  public:
    static constexpr int code = 16;
    explicit ConnectionLost(const std::string &msg)
        : SimError(Kind::Connection, msg)
    {}
};

/**
 * Map a process exit code back to the SimError class name that
 * produces it ("input", "estimator", "watchdog", "checkpoint",
 * "protocol", "quota", "connection"), or nullptr when the code
 * belongs to no SimError class. The sweep worker uses this to
 * classify dead child processes without parsing their output.
 */
const char *simErrorKindNameForExit(int exit_code);

/**
 * Format a message, print it (same convention as fatal()) and throw
 * the requested SimError subclass:
 *
 *   raiseError<InputError>("trace '", path, "' truncated");
 */
template <typename E, typename... Args>
[[noreturn]] void
raiseError(Args &&...args)
{
    auto msg = logging::formatMessage(std::forward<Args>(args)...);
    E err(msg);
    logging::printMessage("error: ",
                          std::string(err.kindName()) + ": " + msg);
    throw err;
}

} // namespace soefair

#endif // SOEFAIR_SIM_ERRORS_HH
