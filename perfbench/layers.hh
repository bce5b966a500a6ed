/**
 * @file
 * Per-layer instrumentation for the traced benchmark run.
 *
 * Everything here sits outside the simulator: spans are recorded
 * around the benchmark's own calls into each layer, the SOE engine
 * is timed through a cpu::SwitchController decorator, and the
 * workload and memory layers are timed by replaying a cell's own
 * instruction stream after the run. The traced cell runners mirror
 * harness::Runner phase for phase, so their payloads must equal the
 * untraced run's byte for byte (run.py checks that).
 */

#ifndef SOEFAIR_PERFBENCH_LAYERS_HH
#define SOEFAIR_PERFBENCH_LAYERS_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/runner.hh"

namespace perfbench
{

namespace harness = soefair::harness;
using Clock = std::chrono::steady_clock;

/** Nanoseconds on the steady clock (CLOCK_MONOTONIC on Linux). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** One traced interval; `parent` indexes the span list (-1: root). */
struct Span
{
    std::string name;
    std::int64_t start = 0;
    std::int64_t end = 0;
    int parent = -1;
    std::string cell;
};

/** In-memory span list, written out once the run has finished. */
class SpanLog
{
  public:
    int open(const std::string &name, int parent,
             const std::string &cell);
    void close(int id) { spans[std::size_t(id)].end = nowNs(); }
    void add(Span s) { spans.push_back(std::move(s)); }
    const std::vector<Span> &all() const { return spans; }

  private:
    std::vector<Span> spans;
};

/** Counters the traced runs accumulate across cells. */
struct LayerTotals
{
    /** Simulated cycles stepped, and those fast-forwarded. */
    std::uint64_t cycles = 0;
    std::uint64_t ffCycles = 0;
    /** Switch-controller calls, their summed host time, and a
     *  1 ns-bucket histogram of single-call durations. */
    std::uint64_t soeCalls = 0;
    std::int64_t soeNs = 0;
    std::array<std::uint64_t, 4096> soeHist{};
    /** Instructions generated during stepping (not warm-up). */
    std::uint64_t stepGenerated = 0;
    /** Workload replay: next() calls and host time. */
    std::uint64_t replayOps = 0;
    std::int64_t replayGenNs = 0;
    /** Memory replay: fetch and data calls and host time. */
    std::uint64_t replayFetches = 0;
    std::int64_t replayFetchNs = 0;
    std::uint64_t replayAccesses = 0;
    std::int64_t replayAccessNs = 0;
    /** Sum of every cell's statistics tree, by stat name. */
    std::map<std::string, double> stats;
};

/** Traced mirror of Runner::runSoe (same phases, same result). */
harness::SoeRunResult
tracedRunSoe(const harness::MachineConfig &mc,
             const std::vector<harness::ThreadSpec> &specs,
             soefair::soe::SchedulingPolicy &policy,
             const harness::RunConfig &rc, const std::string &cell,
             SpanLog &log, LayerTotals &totals);

/** Traced mirror of Runner::runSingleThread. */
harness::StRunResult
tracedRunSingleThread(const harness::MachineConfig &mc,
                      const harness::ThreadSpec &spec,
                      const harness::RunConfig &rc,
                      const std::string &cell, SpanLog &log,
                      LayerTotals &totals);

/** Median duration of two back-to-back steady-clock reads. */
std::int64_t clockOverheadNs();

} // namespace perfbench

#endif // SOEFAIR_PERFBENCH_LAYERS_HH
