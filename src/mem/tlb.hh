/**
 * @file
 * Fully-associative TLB with a timing page walker.
 *
 * Matching the simulated machine in the paper, TLBs are shared
 * between threads (entries are distinguished naturally because each
 * thread's addresses live in a disjoint slice) and are not flushed
 * on a thread switch. A TLB miss walks a per-thread page-table
 * region through the L2; a walk that misses the L2 is a last-level
 * miss and — like load misses — is a switch event (Section 4.1:
 * "Misses induced by load instructions as well as i/d TLB page
 * walks are tracked").
 */

#ifndef SOEFAIR_MEM_TLB_HH
#define SOEFAIR_MEM_TLB_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/request.hh"
#include "stats/stats.hh"

namespace soefair
{
namespace mem
{

struct TlbConfig
{
    std::string name = "tlb";
    unsigned entries = 64;
    /** Walker overhead on top of the walk's L2/memory access. */
    unsigned walkCycles = 10;
};

struct TlbResult
{
    /** Tick at which the translation is available. */
    Tick completion = 0;
    /** True if a page walk was needed. */
    bool walked = false;
    /** True if the walk's memory reference missed the L2. */
    bool walkMemoryMiss = false;
};

class Tlb
{
  public:
    Tlb(const TlbConfig &config, MemLevel &walk_level,
        statistics::Group *stats_parent);

    TlbResult lookup(ThreadID tid, Addr addr, Tick when);

    /**
     * Functional warmup: install the translation (no timing) and
     * return the page-table address so the caller can warm the PT
     * line into the cache hierarchy.
     */
    Addr warmInstall(ThreadID tid, Addr addr);

    /** Drop every entry (tests only; switches do NOT flush). */
    void flush();

    const TlbConfig &config() const { return cfg; }

    statistics::Group statsGroup;
    statistics::Counter lookups;
    statistics::Counter hits;
    statistics::Counter walks;
    statistics::Counter walkL2Misses;

  private:
    struct Entry
    {
        bool valid = false;
        Addr vpn = 0;
        std::uint64_t lruStamp = 0;
    };

    static constexpr unsigned pageShift = 12;

    Addr pageTableAddr(ThreadID tid, Addr vpn) const;

    TlbConfig cfg;
    MemLevel &walkLevel;
    std::vector<Entry> entries;
    std::uint64_t lruCounter = 0;
};

} // namespace mem
} // namespace soefair

#endif // SOEFAIR_MEM_TLB_HH
