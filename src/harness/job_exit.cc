#include "harness/job_exit.hh"

#include <sys/wait.h>

#include <algorithm>

#include "sim/errors.hh"

namespace soefair
{
namespace harness
{

int
runJobBody(const std::function<std::string(unsigned)> &body,
           unsigned attempt, std::string &payload)
{
    try {
        payload = body(attempt);
        return 0;
    } catch (const SimError &e) {
        return e.exitCode();
    } catch (const FatalError &) {
        return 1;
    } catch (...) {
        // Internal bug (PanicError, AuditError, ...).
        return 3;
    }
}

std::string
classifyStatus(int status, bool deadline_kill)
{
    if (WIFEXITED(status))
        return classifyExitCode(WEXITSTATUS(status));
    if (WIFSIGNALED(status))
        return deadline_kill ? "deadline" : "signal";
    return "exit";
}

std::string
classifyExitCode(int code)
{
    if (const char *kind = simErrorKindNameForExit(code))
        return kind;
    switch (code) {
      case 0: return "";
      case 1: return "fatal";
      case 2: return "usage";
      case 3: return "panic";
      default: return "exit";
    }
}

bool
isTransient(const std::string &fail_class)
{
    return fail_class == "estimator" || fail_class == "watchdog" ||
           fail_class == "panic" || fail_class == "signal" ||
           fail_class == "deadline" || fail_class == "fork" ||
           fail_class == "connection";
}

double
backoffSeconds(double base, unsigned failed_attempt)
{
    if (failed_attempt == 0)
        return 0.0;
    return base * double(1ull << std::min(failed_attempt - 1, 62u));
}

} // namespace harness
} // namespace soefair
