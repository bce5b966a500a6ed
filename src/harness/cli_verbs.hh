/**
 * @file
 * Registry of soefair_cli verbs: one record per command with its
 * synopsis, option list and exit codes. `soefair_cli help [verb]`
 * renders it, and a test walks it to guarantee every registered
 * verb documents its flags and exit codes — adding a verb without
 * documentation is a test failure, not a silent gap.
 */

#ifndef SOEFAIR_HARNESS_CLI_VERBS_HH
#define SOEFAIR_HARNESS_CLI_VERBS_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "harness/cli.hh"

namespace soefair
{
namespace harness
{

struct CliVerbOption
{
    std::string name;        ///< "--queue DIR"
    std::string description; ///< one line
};

struct CliVerb
{
    std::string name;     ///< "submit"
    std::string synopsis; ///< "submit --server ADDR [options]"
    std::string description;
    std::vector<CliVerbOption> options;
    /** Exit-code contract, e.g. "0 ok; 2 usage; 15 quota". */
    std::string exitCodes;
};

/** Every verb the CLI dispatches, in help order. */
const std::vector<CliVerb> &cliVerbs();

/** Find a verb by name; nullptr when unknown. */
const CliVerb *findCliVerb(const std::string &name);

/**
 * Options on the command line that `verb` does not list (names
 * without the leading "--"). soefair_cli refuses a command line
 * with any of them (exit 2) instead of running with a default.
 */
std::vector<std::string> unknownVerbOptions(const CliVerb &verb,
                                            const CliOptions &opts);

/** Render the one-screen overview (all verbs, one line each). */
void printCliHelp(std::ostream &os);

/** Render one verb's full help (options + exit codes). */
void printCliVerbHelp(std::ostream &os, const CliVerb &verb);

/**
 * Run a CLI verb body under the canonical failure-to-exit-code
 * mapping: a thrown SimError becomes its class's exit code
 * (10..13), FatalError becomes 1, PanicError and AuditError become
 * 3. Every failure path of soefair_cli funnels through this one
 * function, and tests/test_exit_codes.cc round-trips each SimError
 * class through it — so the mapping a scripted caller observes is
 * the mapping the tests (and soelint's ERR rules) pin down.
 */
int runWithExitCodeMapping(const std::function<int()> &body);

} // namespace harness
} // namespace soefair

#endif // SOEFAIR_HARNESS_CLI_VERBS_HH
