/**
 * @file
 * Fixed-capacity FIFO ring of DynInsts with stable slots.
 *
 * The ROB and the fetch buffer are bounded FIFOs whose entries are
 * pointed at by the rename table, issue queue and load/store queues.
 * A std::deque gives the required reference stability but allocates
 * and frees chunk blocks as the queue breathes, which was the
 * dominant steady-state heap traffic of a simulated cycle. This
 * ring allocates its slots once at construction: an entry's address
 * never changes between push and pop (slots are reused only after
 * the entry left the structure), so all existing pointer protocols
 * carry over, and steady-state simulation does zero heap allocation.
 *
 * The slot array is rounded up to a power of two so that wrapping is
 * a mask, not a division; the logical capacity (when full() turns
 * true) is exactly the requested one. Slot indices are stable for
 * the life of an entry, and walking slots upward from frontSlot()
 * (wrapping at slotCount()) visits entries oldest first.
 */

#ifndef SOEFAIR_CPU_INST_RING_HH
#define SOEFAIR_CPU_INST_RING_HH

#include <cstddef>
#include <vector>

#include "cpu/dyn_inst.hh"
#include "sim/logging.hh"

namespace soefair
{
namespace cpu
{

class InstRing
{
  public:
    explicit InstRing(std::size_t capacity)
        : slots(roundUpPow2(capacity)), mask(slots.size() - 1),
          cap(capacity)
    {
        soefair_assert(capacity > 0,
                       "InstRing capacity must be positive");
    }

    bool empty() const { return count == 0; }
    bool full() const { return count == cap; }
    std::size_t size() const { return count; }
    std::size_t capacity() const { return cap; }
    /** Physical slot count: capacity() rounded up to a power of two. */
    std::size_t slotCount() const { return slots.size(); }

    /** Append a default-initialised entry at the tail; returns it. */
    DynInst &
    emplaceBack()
    {
        DynInst &slot = claimTail();
        slot = DynInst{};
        return slot;
    }

    /** Append a copy of `inst` at the tail; returns the stable slot. */
    DynInst &
    pushBack(const DynInst &inst)
    {
        DynInst &slot = claimTail();
        slot = inst;
        return slot;
    }

    DynInst &
    front()
    {
        soefair_assert(!empty(), "front of empty InstRing");
        return slots[head];
    }

    const DynInst &
    front() const
    {
        soefair_assert(!empty(), "front of empty InstRing");
        return slots[head];
    }

    DynInst &
    back()
    {
        soefair_assert(!empty(), "back of empty InstRing");
        return slots[wrap(head + count - 1)];
    }

    /** i-th oldest entry (0 = front). */
    DynInst &at(std::size_t i) { return slots[wrap(head + i)]; }
    const DynInst &
    at(std::size_t i) const
    {
        return slots[wrap(head + i)];
    }

    /** Slot index of the oldest entry. */
    std::size_t frontSlot() const { return head; }
    /** Slot index of the next entry pushBack()/emplaceBack() fills. */
    std::size_t tailSlot() const { return wrap(head + count); }
    /** The entry in physical slot `s` (must be occupied). */
    DynInst &slot(std::size_t s) { return slots[s]; }
    const DynInst &slot(std::size_t s) const { return slots[s]; }

    void
    popFront()
    {
        soefair_assert(!empty(), "pop of empty InstRing");
        head = wrap(head + 1);
        --count;
    }

    void
    clear()
    {
        head = 0;
        count = 0;
    }

    /** Oldest-first iteration (range-for). */
    template <typename Ring, typename Value>
    class Iter
    {
      public:
        Iter(Ring *ring, std::size_t index) : r(ring), i(index) {}
        Value &operator*() const { return r->at(i); }
        Value *operator->() const { return &r->at(i); }
        Iter &
        operator++()
        {
            ++i;
            return *this;
        }
        bool operator==(const Iter &o) const { return i == o.i; }
        bool operator!=(const Iter &o) const { return i != o.i; }

      private:
        Ring *r;
        std::size_t i;
    };

    using iterator = Iter<InstRing, DynInst>;
    using const_iterator = Iter<const InstRing, const DynInst>;

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, count}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, count}; }

  private:
    static std::size_t
    roundUpPow2(std::size_t n)
    {
        std::size_t p = 1;
        while (p < n)
            p <<= 1;
        return p;
    }

    DynInst &
    claimTail()
    {
        soefair_assert(!full(), "push to full InstRing");
        DynInst &slot = slots[wrap(head + count)];
        ++count;
        return slot;
    }

    std::size_t wrap(std::size_t i) const { return i & mask; }

    std::vector<DynInst> slots;
    std::size_t mask;
    std::size_t cap;
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace cpu
} // namespace soefair

#endif // SOEFAIR_CPU_INST_RING_HH
