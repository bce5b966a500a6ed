/**
 * @file
 * Per-hardware-thread state of the SOE engine.
 *
 * Holds the paper's three hardware counters (current delta window
 * plus whole-run totals), the deficit counter that maintains the
 * IPSw quota, and the residency bookkeeping that makes Cycles_j
 * count only the cycles the thread actually ran (from the first
 * retirement after switch-in to switch-out, excluding switch
 * overhead).
 */

#ifndef SOEFAIR_SOE_THREAD_CONTEXT_HH
#define SOEFAIR_SOE_THREAD_CONTEXT_HH

#include "core/deficit.hh"
#include "core/estimator.hh"
#include "sim/types.hh"

namespace soefair
{
namespace soe
{

struct ThreadContext
{
    ThreadID tid = 0;

    /** Counters for the current delta window. */
    core::HwCounters window;
    /** Whole-run counters. */
    core::HwCounters totals;

    /** IPSw quota tracking (Section 3.2). */
    core::DeficitCounter deficit;
    /** Quota installed by the last recalculation (for reporting). */
    double quota = core::DeficitCounter::unlimited;

    /** True while this thread owns the pipeline. */
    bool running = false;
    /** True from switch-in until the first retirement. */
    bool awaitingFirstRetire = true;
    /** Tick of the first retirement of this residency. */
    Tick residencyStart = 0;
    /** Tick the thread was switched in (max-cycles quota base). */
    Tick switchInTick = 0;
    /** Instructions retired in the current residency. */
    std::uint64_t instrsThisResidency = 0;

    /** Switch-ins during the current delta window (audit hook). */
    std::uint64_t windowSwitchIns = 0;

    /** Deduplication tag for head-miss counting. */
    InstSeqNum lastMissSeq = 0;
    /**
     * Resolution tick of the miss this thread switched out on; the
     * thread is not eligible to run again before this (Eq. 2's
     * assumption that a miss is resolved by the time its thread
     * resumes).
     */
    Tick blockedUntil = 0;

    bool ready(Tick now) const { return blockedUntil <= now; }
};

} // namespace soe
} // namespace soefair

#endif // SOEFAIR_SOE_THREAD_CONTEXT_HH
