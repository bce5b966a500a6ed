/**
 * @file
 * Stride prefetcher.
 *
 * The paper's machine has no hardware prefetcher (its only
 * "prefetching effect" is overlapped misses surviving a thread
 * switch, footnote 5), so this unit is DISABLED by default; the
 * ablation bench turns it on to study how prefetching interacts
 * with SOE — fewer last-level misses mean fewer switch
 * opportunities and less stall time to hide.
 *
 * Design: a table indexed by page (4 KiB region) tracks the last
 * demand offset and the last observed stride; once the same stride
 * repeats (confidence), the next `degree` strided lines are fetched
 * into the L2 through its normal miss path.
 */

#ifndef SOEFAIR_MEM_PREFETCHER_HH
#define SOEFAIR_MEM_PREFETCHER_HH

#include <cstdint>
#include <vector>

#include "mem/request.hh"
#include "stats/stats.hh"

namespace soefair
{
namespace mem
{

struct PrefetcherConfig
{
    bool enabled = false;
    unsigned tableEntries = 64;
    /** Strided lines fetched per trigger. */
    unsigned degree = 2;
    /** Consecutive equal strides required before issuing. */
    unsigned confidence = 2;
};

class StridePrefetcher
{
  public:
    StridePrefetcher(const PrefetcherConfig &config,
                     MemLevel &target_level,
                     statistics::Group *stats_parent);

    /** Observe a demand load; may issue prefetches into the target. */
    void observe(ThreadID tid, Addr addr, Tick when);

    bool enabled() const { return cfg.enabled; }

    statistics::Group statsGroup;
    statistics::Counter issued;
    statistics::Counter dropped;

  private:
    struct Entry
    {
        bool valid = false;
        Addr page = 0;
        Addr lastAddr = 0;
        std::int64_t stride = 0;
        unsigned hits = 0;
        std::uint64_t lruStamp = 0;
    };

    PrefetcherConfig cfg;
    MemLevel &target;
    std::vector<Entry> table;
    std::uint64_t lruCounter = 0;
};

} // namespace mem
} // namespace soefair

#endif // SOEFAIR_MEM_PREFETCHER_HH
