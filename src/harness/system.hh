/**
 * @file
 * System builder: wires workloads, memory hierarchy, core and the
 * SOE engine into a runnable simulated machine.
 *
 * Threads: one thread runs a System (`sim`), and each
 * generator-backed hardware thread gets a read-ahead helper thread
 * (workload/readahead.hh) that produces its micro-ops. The helpers
 * start at the first step() and are joined whenever a caller reaches
 * a generator through generator()/source(), and on destruction, so
 * no caller ever reads a generator a helper is writing. A simulation
 * therefore runs on 1 + (generator-backed threads) OS threads.
 * Trace-driven threads stay synchronous: a TraceReplaySource reports
 * corrupt records and counts wraps as it reads, so reading it ahead
 * would report records the run never reaches.
 */

// detlint: conc-optin — System owns the exact state step() mutates;
// every member is tagged with its owner, the thread that runs this
// System (CONC-001, see src/sim/annotations.hh). The helpers share
// only the generators, through the ReadAhead rings.

#ifndef SOEFAIR_HARNESS_SYSTEM_HH
#define SOEFAIR_HARNESS_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "cpu/core.hh"
#include "harness/machine_config.hh"
#include "mem/hierarchy.hh"
#include "sim/annotations.hh"
#include "sim/event_queue.hh"
#include "stats/stats.hh"
#include "workload/generator.hh"
#include "workload/inst_stream.hh"
#include "workload/readahead.hh"
#include "workload/profile.hh"
#include "workload/trace_file.hh"

namespace soefair
{
namespace harness
{

/** One hardware thread's workload. */
struct ThreadSpec
{
    workload::Profile profile SOE_THREAD_OWNED(sim);
    std::uint64_t seed SOE_THREAD_OWNED(sim) = 1;
    /**
     * If set, the thread replays this binary trace file instead of
     * running the generator (trace-driven mode); profile and seed
     * are then ignored.
     */
    std::string tracePath SOE_THREAD_OWNED(sim);

    static ThreadSpec
    benchmark(const std::string &name, std::uint64_t seed_)
    {
        ThreadSpec s;
        s.profile = workload::spec::byName(name);
        s.seed = seed_;
        return s;
    }

    static ThreadSpec
    trace(const std::string &path)
    {
        ThreadSpec s;
        s.tracePath = path;
        return s;
    }
};

class System
{
  public:
    System(const MachineConfig &config,
           const std::vector<ThreadSpec> &specs);
    /** Joins the read-ahead helpers. */
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    cpu::Core &core() { return *coreInst; }
    mem::Hierarchy &hierarchy() { return *hier; }
    EventQueue &events() { return eventQueue; }
    /**
     * The thread's generator; fatal() for trace-driven threads.
     * Joins the read-ahead helpers (the next step() restarts them),
     * so the generator may be up to ReadAhead::capacity ops ahead of
     * what the core has fetched.
     */
    workload::WorkloadGenerator &generator(ThreadID tid);
    /** The thread's instruction source (generator or trace); joins
     *  the helpers like generator(). */
    workload::InstSource &source(ThreadID tid);
    statistics::Group &stats() { return root; }

    unsigned numThreads() const { return unsigned(sources.size()); }
    Tick now() const { return currentTick; }

    /** Install the switch controller and begin with thread 0. */
    void start(cpu::SwitchController *controller);

    /**
     * Advance exactly n cycles (starting the read-ahead helpers if
     * they are not running). With fast-forward enabled (the
     * default), runs of provably quiescent cycles — every pipeline
     * stage stalled, nothing due on the event queue — are jumped in
     * one step instead of ticked one by one, with the per-cycle
     * stall counters credited in bulk. The determinism contract:
     * every statistic and every observable tick (events, samples,
     * switches, retirements) is byte-identical with fast-forward on
     * and off; see docs/performance.md.
     */
    void step(std::uint64_t n);

    /** Toggle stall fast-forwarding (on by default). */
    void setFastForward(bool on) { fastForward = on; }
    bool fastForwardEnabled() const { return fastForward; }

    /** Number of quiescent stretches jumped. */
    std::uint64_t fastForwardJumps() const { return ffJumps; }
    /** Cycles elided by those jumps (still counted in now()). */
    std::uint64_t fastForwardCycles() const { return ffCycles; }

    /**
     * Functional cache warmup: stream `instrs_per_thread` upcoming
     * instructions of every thread through the caches (round-robin
     * in chunks so threads' lines interleave), consuming the
     * generators on the calling thread. No cycles pass.
     */
    void warmCaches(std::uint64_t instrs_per_thread);

    /** Dump the full stat tree. */
    void dumpStats(std::ostream &os) const { root.dump(os); }

  private:
    /** Join every read-ahead helper (no-op when none runs). */
    void stopReadAhead();

    statistics::Group root SOE_THREAD_OWNED(sim);
    MachineConfig cfg SOE_THREAD_OWNED(sim);
    EventQueue eventQueue SOE_THREAD_OWNED(sim);
    std::unique_ptr<mem::Hierarchy> hier SOE_THREAD_OWNED(sim);
    std::unique_ptr<cpu::Core> coreInst SOE_THREAD_OWNED(sim);
    /**
     * The vector is the sim thread's. While the helpers run, each
     * generator in it is called only by its helper; trace sources
     * are always read on the sim thread.
     */
    std::vector<std::unique_ptr<workload::InstSource>>
        sources SOE_THREAD_OWNED(sim);
    /** One per generator-backed thread. Declared after `sources`,
     *  so they are joined before the generators are destroyed. */
    std::vector<std::unique_ptr<workload::ReadAhead>>
        readAheads SOE_THREAD_OWNED(sim);
    std::vector<std::unique_ptr<workload::InstStream>>
        streams SOE_THREAD_OWNED(sim);
    Tick currentTick SOE_THREAD_OWNED(sim) = 0;
    bool started SOE_THREAD_OWNED(sim) = false;
    /**
     * Deliberately not part of MachineConfig: fast-forward changes
     * wall-clock speed only, never results, so it must not perturb
     * config fingerprints (campaign keys, eval caches).
     */
    bool fastForward SOE_THREAD_OWNED(sim) = true;
    std::uint64_t ffJumps SOE_THREAD_OWNED(sim) = 0;
    std::uint64_t ffCycles SOE_THREAD_OWNED(sim) = 0;
};

} // namespace harness
} // namespace soefair

#endif // SOEFAIR_HARNESS_SYSTEM_HH
