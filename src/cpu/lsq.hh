/**
 * @file
 * Load and store queues.
 *
 * The load queue bounds in-flight loads (a structural resource); the
 * store queue holds dispatched-but-unretired stores and is searched
 * by issuing loads for store-to-load forwarding. All entries belong
 * to the single active thread: a thread switch squashes both queues
 * (the paper's "draining of instructions from the RS, ROB and LB").
 */

#ifndef SOEFAIR_CPU_LSQ_HH
#define SOEFAIR_CPU_LSQ_HH

#include <deque>

#include "cpu/dyn_inst.hh"
#include "sim/invariant.hh"
#include "sim/logging.hh"

namespace soefair
{
namespace cpu
{

/** Occupancy-only load queue. */
class LoadQueue
{
  public:
    explicit LoadQueue(unsigned capacity) : cap(capacity)
    {
        soefair_assert(cap > 0, "LQ capacity must be positive");
    }

    bool full() const { return count >= cap; }

    void
    add()
    {
        soefair_assert(!full(), "LQ overflow");
        ++count;
        SOE_AUDIT(count <= cap, "LQ occupancy ", count,
                  " above capacity ", cap);
    }

    void remove() { soefair_assert(count > 0, "LQ underflow"); --count; }
    void squashAll() { count = 0; }
    unsigned occupancy() const { return count; }

  private:
    unsigned cap;
    unsigned count = 0;
};

/** Searchable in-order store queue. */
class StoreQueue
{
  public:
    explicit StoreQueue(unsigned capacity) : cap(capacity)
    {
        soefair_assert(cap > 0, "SQ capacity must be positive");
    }

    bool full() const { return entries.size() >= cap; }
    bool empty() const { return entries.empty(); }
    std::size_t size() const { return entries.size(); }

    void
    push(DynInst *store)
    {
        soefair_assert(!full(), "push to full SQ");
        SOE_AUDIT(entries.empty() ||
                  entries.back()->op.seqNum < store->op.seqNum,
                  "SQ must stay in program order");
        entries.push_back(store);
        SOE_AUDIT(entries.size() <= cap, "SQ occupancy ",
                  entries.size(), " above capacity ", cap);
    }

    /** Retire the oldest store (must be the queue head). */
    void
    retireHead(const DynInst *store)
    {
        soefair_assert(!entries.empty() && entries.front() == store,
                       "SQ retire out of order");
        entries.pop_front();
    }

    void squashAll() { entries.clear(); }

    /** Outcome of searching for an older store to the same word. */
    enum class Match
    {
        None,    ///< no older store to this word
        Forward, ///< youngest matching store has its data ready
        Block    ///< matching store's data not ready: load must wait
    };

    /**
     * Search older-than-`load_seq` stores for a word match
     * (youngest first).
     */
    Match search(Addr addr, InstSeqNum load_seq, Tick now) const;

  private:
    unsigned cap;
    std::deque<DynInst *> entries;
};

} // namespace cpu
} // namespace soefair

#endif // SOEFAIR_CPU_LSQ_HH
