#include "sim/errors.hh"

namespace soefair
{

int
SimError::exitCode() const
{
    switch (errKind) {
      case Kind::Input:
        return InputError::code;
      case Kind::Estimator:
        return EstimatorError::code;
      case Kind::Watchdog:
        return WatchdogTimeout::code;
      case Kind::Checkpoint:
        return CheckpointError::code;
    }
    return 1; // unreachable; keeps -Wreturn-type happy
}

const char *
simErrorKindNameForExit(int exit_code)
{
    switch (exit_code) {
      case InputError::code:
        return "input";
      case EstimatorError::code:
        return "estimator";
      case WatchdogTimeout::code:
        return "watchdog";
      case CheckpointError::code:
        return "checkpoint";
      default:
        return nullptr;
    }
}

const char *
SimError::kindName() const
{
    switch (errKind) {
      case Kind::Input:
        return "input";
      case Kind::Estimator:
        return "estimator";
      case Kind::Watchdog:
        return "watchdog";
      case Kind::Checkpoint:
        return "checkpoint";
    }
    return "unknown";
}

} // namespace soefair
