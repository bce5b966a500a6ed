/**
 * @file
 * A minimal discrete event queue.
 *
 * The core itself is cycle-stepped, but the memory system schedules
 * future completions (miss fills, writeback slots) on this queue.
 * Events scheduled for the same tick fire in insertion order, which
 * keeps runs deterministic.
 *
 * Storage is a binary heap of small (tick, order, slot) records over
 * a pool of callback slots recycled through a free list, so the
 * steady state schedules and fires events with zero heap allocation
 * (std::function's small-object buffer holds the cache-fill
 * closures). The heap doubles as the fast-forward horizon: the
 * harness asks nextEventTick() before jumping over quiescent cycles.
 */

// detlint: conc-optin — every mutable member below carries an
// ownership or capability annotation (CONC-001): each System, and so
// each event queue, is owned by the one thread that runs it.

#ifndef SOEFAIR_SIM_EVENT_QUEUE_HH
#define SOEFAIR_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/annotations.hh"
#include "sim/types.hh"

namespace soefair
{

/** Priority queue of (tick, callback) pairs. */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    EventQueue() { reserve(defaultReserve); }

    /** Schedule cb to run at tick when (>= current service point). */
    void schedule(Tick when, Callback cb);

    /**
     * Run every event scheduled at or before now, in (tick,
     * insertion-order) order. Events may schedule further events;
     * those also run if they fall within now.
     */
    void runUntil(Tick now);

    /** Tick of the earliest pending event, or maxTick if empty. */
    Tick
    nextEventTick() const
    {
        return heap.empty() ? maxTick : heap.front().when;
    }

    /** Pre-size the heap and slot pool for n concurrent events. */
    void reserve(std::size_t n);

    /** Number of pending events. */
    std::size_t size() const { return heap.size(); }

    bool empty() const { return heap.empty(); }

  private:
    /** Enough for every MSHR of a two-level hierarchy plus slack. */
    static constexpr std::size_t defaultReserve = 64;

    /**
     * Heap record: ordering keys inline (so sifts never touch the
     * callbacks), payload by pool index.
     */
    struct Entry
    {
        Tick when SOE_THREAD_OWNED(sim) = 0;
        std::uint64_t order SOE_THREAD_OWNED(sim) = 0;
        std::uint32_t slot SOE_THREAD_OWNED(sim) = 0;

        bool
        before(const Entry &o) const
        {
            if (when != o.when)
                return when < o.when;
            return order < o.order;
        }
    };

    void siftUp(std::size_t i);
    void siftDown(std::size_t i);
    Entry popTop();

    std::vector<Entry> heap SOE_THREAD_OWNED(sim);
    /** Callback pool; slots of fired events return to freeSlots. */
    std::vector<Callback> pool SOE_THREAD_OWNED(sim);
    std::vector<std::uint32_t> freeSlots SOE_THREAD_OWNED(sim);
    std::uint64_t nextOrder SOE_THREAD_OWNED(sim) = 0;
};

} // namespace soefair

#endif // SOEFAIR_SIM_EVENT_QUEUE_HH
