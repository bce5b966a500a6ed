/**
 * @file
 * The SOE engine: thread rotation, hardware counters and the
 * periodic fairness recalculation.
 *
 * Implements cpu::SwitchController. The engine owns one
 * ThreadContext per hardware thread and:
 *
 *  - rotates round-robin among *ready* threads (a thread switched
 *    out on a miss is not eligible until that miss resolves);
 *  - maintains Instrs/Cycles/Misses per thread, deduplicating
 *    overlapped misses by ROB-head sequence number;
 *  - samples the counters every delta cycles, asks the policy for
 *    fresh IPSw quotas, and reloads the deficit counters;
 *  - enforces the max-cycles residency quota (50,000 cycles in the
 *    paper) so every thread runs within each delta window.
 */

#ifndef SOEFAIR_SOE_ENGINE_HH
#define SOEFAIR_SOE_ENGINE_HH

#include <functional>
#include <vector>

#include "core/estimator.hh"
#include "cpu/core.hh"
#include "sim/invariant.hh"
#include "soe/policies.hh"
#include "soe/thread_context.hh"
#include "stats/stats.hh"

namespace soefair
{
namespace soe
{

struct SoeConfig
{
    /** Sampling / recalculation period (Section 3.1). */
    Tick delta = 250 * 1000;
    /** Max residency before a forced rotation (Section 4.1). */
    Tick maxCyclesQuota = 50 * 1000;
    /** Average miss latency used by Eqs. 9/13. */
    double missLatency = 300.0;
    /**
     * Section 6 extension: also switch threads on unresolved L1
     * misses at the ROB head (hides L1-miss latency; only
     * profitable when that latency exceeds the switch cost).
     */
    bool switchOnL1Miss = false;
    /**
     * Honour pause (yield hint) instructions as switch triggers
     * (Section 6, footnote 7). On by default: pause ops only exist
     * in workloads that emit them deliberately.
     */
    bool switchOnPause = true;
    /**
     * No-progress watchdog: K delta windows in a row with engine
     * activity (a resident thread or switch-ins) but zero retirement
     * across all threads raises WatchdogTimeout with a per-thread
     * diagnostic dump (livelock / whole-machine starvation, e.g. a
     * stuck miss that never resolves). 0 disables the watchdog.
     */
    unsigned watchdogWindows = 8;
};

/** One delta window's worth of observable state (Figure 5 data). */
struct SampleWindowRecord
{
    Tick endTick = 0;
    Tick windowCycles = 0;

    struct PerThread
    {
        std::uint64_t instrs = 0;
        std::uint64_t cycles = 0;
        std::uint64_t misses = 0;
        /** Estimated IPC_ST carried into the next window. */
        double estIpcSt = 0.0;
        /** Thread's SOE IPC over the window (instrs / window). */
        double ipcSoe = 0.0;
        /** Quota installed for the next window. */
        double quota = 0.0;
    };

    std::vector<PerThread> threads;
    /**
     * Average switch-event latency measured over the window from
     * the head-stall resolution times (<= 0 if no events); the
     * Section 6 variable-latency extension feeds this to the
     * policy.
     */
    double measuredMissLat = 0.0;
};

class SoeEngine : public cpu::SwitchController
{
  public:
    SoeEngine(const SoeConfig &config, SchedulingPolicy &policy,
              unsigned num_threads, statistics::Group *stats_parent);

    // --- cpu::SwitchController ---
    ThreadID onHeadStall(ThreadID tid, InstSeqNum seq, Tick now,
                         Tick stall_resolve,
                         bool is_l2_miss) override;
    bool onRetire(ThreadID tid, Tick now) override;
    bool onPause(ThreadID tid, Tick now) override;
    bool onCycle(ThreadID tid, Tick now) override;
    ThreadID pickNextForced(ThreadID tid, Tick now) override;
    void onSwitchOut(ThreadID tid, Tick now,
                     cpu::SwitchReason reason) override;
    void onSwitchIn(ThreadID tid, Tick now) override;
    Tick nextWakeTick(ThreadID tid, Tick now) const override;

    /** Close accounting at the end of a run. */
    void finalize(Tick now);

    /** Per-window observer (Figure 5 timelines). */
    using SampleHook = std::function<void(const SampleWindowRecord &)>;
    void setSampleHook(SampleHook hook) { sampleHook = std::move(hook); }

    const ThreadContext &context(ThreadID tid) const;
    unsigned numThreads() const { return unsigned(threads.size()); }
    const SoeConfig &config() const { return cfg; }
    SchedulingPolicy &getPolicy() { return policy; }

    statistics::Group statsGroup;
    statistics::Counter samples;
    statistics::Counter missEvents;
    /**
     * Delta windows the policy answered with its degraded fallback
     * (estimator guardrails gave up; see core::FairnessEnforcer).
     */
    statistics::Counter degradedWindows;
    /**
     * Effective switch latency by the paper's definition: cycles
     * from the start of a switch until the first instruction of the
     * incoming thread retires ("usually accumulates to around 25").
     */
    statistics::Average switchLatency;
    /** Instructions retired per residency (validates IPSw_j). */
    statistics::Histogram instrsPerSwitch;
    /** Cycles per residency. */
    statistics::Histogram residencyCycles;

    /**
     * Audit sweep (also registered with the global InvariantAuditor):
     * SOE mode never has more than one runnable thread.
     */
    void auditThreadStates() const;

  private:
    ThreadContext &ctx(ThreadID tid);
    ThreadID nextReady(ThreadID tid, Tick now) const;
    void closeResidency(ThreadContext &c, Tick now);
    void sample(Tick now);
    void auditWindow(Tick now) const;
    void checkProgress(const std::vector<core::HwCounters> &window,
                       Tick now);
    [[noreturn]] void watchdogFire(Tick now) const;

    SoeConfig cfg;
    SchedulingPolicy &policy;
    /** Tick the most recent switch-out happened (0 = none yet). */
    Tick lastSwitchStart = 0;
    /** Window accumulators for the measured event latency. */
    std::uint64_t windowStallCycles = 0;
    std::uint64_t windowStallEvents = 0;
    /** Measured average latency of the previous window (<=0 none). */
    double lastMeasuredMissLat = 0.0;
    std::vector<ThreadContext> threads;
    std::vector<core::WindowEstimate> lastEstimates;
    /** Reused per-sample snapshot (no per-window allocation). */
    std::vector<core::HwCounters> windowScratch;
    Tick nextSampleTick;
    Tick lastSampleTick = 0;
    /** Consecutive active-but-retirement-free windows (watchdog). */
    unsigned noProgressWindows = 0;
    /** Most recent onCycle tick (cycle-counter monotonicity audit). */
    Tick prevCycleTick = 0;
    SampleHook sampleHook;
    sim::AuditRegistration auditReg;
};

} // namespace soe
} // namespace soefair

#endif // SOEFAIR_SOE_ENGINE_HH
