/**
 * @file
 * Parameterized machine-configuration sweeps: the simulator must
 * stay structurally sound and produce sane results across the
 * machine design space (not just the Table 3 point).
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>

#include "harness/machine_config.hh"
#include "harness/system.hh"
#include "soe/engine.hh"
#include "soe/policies.hh"

using namespace soefair;
using namespace soefair::harness;

namespace
{

struct ConfigPoint
{
    std::string name;
    unsigned rob, iq, lq, sq;
    unsigned l1dKiB, l2KiB;
    unsigned dispatchWidth;
};

std::vector<ConfigPoint>
points()
{
    return {
        {"tiny", 16, 8, 4, 4, 8, 256, 1},
        {"narrow", 32, 16, 8, 8, 16, 512, 2},
        {"table3", 96, 48, 32, 24, 32, 2048, 4},
        {"wide", 192, 96, 48, 48, 64, 4096, 8},
    };
}

// Without this, gtest prints the raw object bytes (including the
// std::string heap pointer) into the listed test names, so every run
// of the binary would name the tests differently.
void
PrintTo(const ConfigPoint &p, std::ostream *os)
{
    *os << p.name;
}

MachineConfig
machineFor(const ConfigPoint &p)
{
    MachineConfig mc = MachineConfig::benchDefault();
    mc.core.robEntries = p.rob;
    mc.core.iqEntries = p.iq;
    mc.core.lqEntries = p.lq;
    mc.core.sqEntries = p.sq;
    mc.core.dispatchWidth = p.dispatchWidth;
    mc.core.retireWidth = p.dispatchWidth;
    mc.core.issueWidth = p.dispatchWidth + 2;
    mc.core.fetch.width = p.dispatchWidth;
    mc.mem.l1d.sizeBytes = p.l1dKiB * 1024;
    mc.mem.l2.sizeBytes = p.l2KiB * 1024;
    return mc;
}

} // namespace

class ConfigSweep : public ::testing::TestWithParam<ConfigPoint>
{
};

TEST_P(ConfigSweep, SingleThreadRunsSoundly)
{
    const ConfigPoint p = GetParam();
    System sys(machineFor(p), {ThreadSpec::benchmark("bzip2", 9)});
    sys.warmCaches(40 * 1000);
    soe::MissOnlyPolicy pol;
    soe::SoeEngine eng(machineFor(p).soe, pol, 1, &sys.stats());
    sys.start(&eng);
    for (int i = 0; i < 60; ++i) {
        sys.step(1000);
        ASSERT_NO_THROW(sys.core().checkInvariants(sys.now()));
        ASSERT_NO_THROW(sys.hierarchy().checkInvariants());
    }
    const double ipc = double(sys.core().retired(0)) / 60000.0;
    EXPECT_GT(ipc, 0.02) << p.name;
    EXPECT_LE(ipc, double(p.dispatchWidth)) << p.name;
}

TEST_P(ConfigSweep, SoeRunsSoundly)
{
    const ConfigPoint p = GetParam();
    System sys(machineFor(p), {ThreadSpec::benchmark("gcc", 9),
                               ThreadSpec::benchmark("swim", 10)});
    sys.warmCaches(40 * 1000);
    soe::FairnessPolicy pol(0.5, 300.0, 2);
    soe::SoeEngine eng(machineFor(p).soe, pol, 2, &sys.stats());
    sys.start(&eng);
    for (int i = 0; i < 60; ++i) {
        sys.step(1000);
        ASSERT_NO_THROW(sys.core().checkInvariants(sys.now()));
    }
    EXPECT_GT(sys.core().retired(0), 100u) << p.name;
    EXPECT_GT(sys.core().retired(1), 100u) << p.name;
    EXPECT_GT(sys.core().switchesMiss.value(), 5u) << p.name;
}

INSTANTIATE_TEST_SUITE_P(
    MachineSpace, ConfigSweep, ::testing::ValuesIn(points()),
    [](const ::testing::TestParamInfo<ConfigPoint> &param_info) {
        return param_info.param.name;
    });

TEST(ConfigSweep, WiderMachineIsNotSlower)
{
    // eon (high-ILP, cache resident) must benefit from a wider
    // machine; a gross inversion indicates a scheduling bug.
    auto ipcFor = [](const ConfigPoint &p) {
        System sys(machineFor(p), {ThreadSpec::benchmark("eon", 9)});
        sys.warmCaches(150 * 1000);
        soe::MissOnlyPolicy pol;
        soe::SoeEngine eng(machineFor(p).soe, pol, 1, &sys.stats());
        sys.start(&eng);
        sys.step(80 * 1000);
        return double(sys.core().retired(0)) / 80000.0;
    };
    const double narrow = ipcFor(points()[1]);
    const double table3 = ipcFor(points()[2]);
    EXPECT_GT(table3, narrow);
}

TEST(ConfigSweep, LargerL2ReducesMisses)
{
    auto missesFor = [](unsigned l2KiB) {
        ConfigPoint p = points()[2];
        p.l2KiB = l2KiB;
        System sys(machineFor(p), {ThreadSpec::benchmark("swim", 9)});
        sys.warmCaches(60 * 1000);
        soe::MissOnlyPolicy pol;
        soe::SoeEngine eng(machineFor(p).soe, pol, 1, &sys.stats());
        sys.start(&eng);
        sys.step(60 * 1000);
        return sys.hierarchy().l2().misses.value();
    };
    // swim streams through 64 MiB: both configs miss, but the tiny
    // L2 must not miss LESS. (Streaming defeats both, so allow
    // equality within noise.)
    EXPECT_GE(missesFor(256) + 50, missesFor(4096));
}
