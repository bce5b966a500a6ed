/**
 * @file
 * The complete memory hierarchy of the simulated machine (paper
 * Figure 4): split L1 I/D caches, a unified L2, a pipelined bus and
 * constant-latency memory, plus i/d TLBs whose walks go through the
 * L2. All structures are physically shared between threads and are
 * never flushed on a thread switch (Section 4.1).
 */

// detlint: conc-optin — the hierarchy is shared between all hardware
// threads of one System and owned by the OS thread running it;
// members carry ownership tags (CONC-001).

#ifndef SOEFAIR_MEM_HIERARCHY_HH
#define SOEFAIR_MEM_HIERARCHY_HH

#include <memory>

#include "mem/bus.hh"
#include "mem/cache.hh"
#include "mem/memory.hh"
#include "mem/prefetcher.hh"
#include "mem/tlb.hh"
#include "sim/annotations.hh"
#include "sim/event_queue.hh"
#include "stats/stats.hh"

namespace soefair
{
namespace mem
{

struct HierarchyConfig
{
    CacheConfig l1i SOE_THREAD_OWNED(sim){"l1i", 32 * 1024, 8, 3, 4};
    CacheConfig l1d SOE_THREAD_OWNED(sim){"l1d", 32 * 1024, 8, 3, 8};
    CacheConfig l2 SOE_THREAD_OWNED(sim){
        "l2", 2 * 1024 * 1024, 16, 12, 16};
    TlbConfig itlb SOE_THREAD_OWNED(sim){"itlb", 64, 10};
    TlbConfig dtlb SOE_THREAD_OWNED(sim){"dtlb", 64, 10};
    /** Hardware prefetcher into the L2 (paper machine: disabled). */
    PrefetcherConfig prefetch SOE_THREAD_OWNED(sim){};
    unsigned busOccupancy SOE_THREAD_OWNED(sim) = 4;
    /** Array latency; total L2-miss cost ~= bus + this (+L1+L2). */
    unsigned memLatency SOE_THREAD_OWNED(sim) = 281;
};

/** Combined outcome of a data or fetch access (TLB + caches). */
struct HierAccessResult
{
    Tick completion SOE_THREAD_OWNED(sim) = 0;
    bool retry SOE_THREAD_OWNED(sim) = false;
    /**
     * The access (or its TLB walk) reached main memory: the paper's
     * last-level cache miss, i.e. the SOE switch event.
     */
    bool l2Miss SOE_THREAD_OWNED(sim) = false;
    /**
     * The access missed the first-level cache (it may still have
     * hit the L2). Used by the extended switch-on-L1-miss mode the
     * paper sketches in Section 6.
     */
    bool l1Miss SOE_THREAD_OWNED(sim) = false;
    bool tlbWalked SOE_THREAD_OWNED(sim) = false;
};

class Hierarchy
{
  public:
    Hierarchy(const HierarchyConfig &config, EventQueue &event_queue,
              statistics::Group *stats_parent);

    HierAccessResult load(ThreadID tid, Addr addr, Tick when);
    HierAccessResult store(ThreadID tid, Addr addr, Tick when);
    HierAccessResult fetch(ThreadID tid, Addr addr, Tick when);

    /**
     * Touch a data address functionally (fast cache warmup: tags
     * move, no timing, no MSHRs).
     */
    void warmData(ThreadID tid, Addr addr, bool is_write);
    /** Touch a fetch address functionally. */
    void warmFetch(ThreadID tid, Addr addr);

    Cache &l1i() { return *l1iCache; }
    Cache &l1d() { return *l1dCache; }
    Cache &l2() { return *l2Cache; }
    Tlb &itlb() { return *iTlb; }
    Tlb &dtlb() { return *dTlb; }
    StridePrefetcher &prefetcher() { return *pf; }
    Bus &bus() { return *frontBus; }
    Memory &memory() { return *mainMem; }

    void checkInvariants() const;

    const HierarchyConfig &config() const { return cfg; }

  private:
    HierAccessResult dataAccess(ThreadID tid, Addr addr, Tick when,
                                bool is_write);

    HierarchyConfig cfg SOE_THREAD_OWNED(sim);
    statistics::Group statsGroup SOE_THREAD_OWNED(sim);
    std::unique_ptr<Bus> frontBus SOE_THREAD_OWNED(sim);
    std::unique_ptr<Memory> mainMem SOE_THREAD_OWNED(sim);
    std::unique_ptr<Cache> l2Cache SOE_THREAD_OWNED(sim);
    std::unique_ptr<Cache> l1iCache SOE_THREAD_OWNED(sim);
    std::unique_ptr<Cache> l1dCache SOE_THREAD_OWNED(sim);
    std::unique_ptr<Tlb> iTlb SOE_THREAD_OWNED(sim);
    std::unique_ptr<Tlb> dTlb SOE_THREAD_OWNED(sim);
    std::unique_ptr<StridePrefetcher> pf SOE_THREAD_OWNED(sim);
};

} // namespace mem
} // namespace soefair

#endif // SOEFAIR_MEM_HIERARCHY_HH
