/**
 * @file
 * Unified issue queue (reservation stations).
 *
 * Entries wait here from dispatch until their sources are ready and
 * a functional unit is free. Selection is oldest-first, which both
 * matches P6-style schedulers closely enough and keeps runs
 * deterministic.
 *
 * Every waiting op already lives in a ROB slot, so the queue stores
 * no entries of its own: it is an occupancy count (the RS capacity
 * limit) plus an "armed" bitmask over ROB ring slots. An op is armed
 * once no source producer is left to issue (DynInst::pendingSrcs ==
 * 0); producers arm their consumers as they issue. The issue stage
 * walks only the armed bits, upward from the ROB head slot, which is
 * oldest-first order. Retirement never touches the queue: a retiring
 * op issued long ago, and its consumers were unlinked at that point.
 */

#ifndef SOEFAIR_CPU_ISSUE_QUEUE_HH
#define SOEFAIR_CPU_ISSUE_QUEUE_HH

#include <cstdint>
#include <vector>

#include "cpu/dyn_inst.hh"
#include "sim/logging.hh"

namespace soefair
{
namespace cpu
{

class IssueQueue
{
  public:
    /**
     * @param capacity RS entries.
     * @param rob_slots Ring slot count of the ROB the entries live in.
     */
    IssueQueue(unsigned capacity, std::size_t rob_slots)
        : cap(capacity), slots(rob_slots), armedBits((rob_slots + 63) / 64)
    {
        soefair_assert(cap > 0, "IQ capacity must be positive");
        soefair_assert(slots > 0, "IQ over an empty ROB");
    }

    bool full() const { return count >= cap; }
    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }

    /** A dispatched op enters; armed at once if no source waits. */
    void
    insert(DynInst *inst)
    {
        soefair_assert(!full(), "insert to full IQ");
        ++count;
        if (inst->pendingSrcs == 0)
            arm(inst);
    }

    /** Its last pending producer issued: `inst` may now be selected. */
    void
    arm(const DynInst *inst)
    {
        const std::size_t s = inst->robSlot;
        armedBits[s >> 6] |= std::uint64_t(1) << (s & 63);
    }

    bool
    armed(const DynInst *inst) const
    {
        const std::size_t s = inst->robSlot;
        return (armedBits[s >> 6] >> (s & 63)) & 1;
    }

    /** `inst` issued: it leaves the queue. */
    void
    remove(const DynInst *inst)
    {
        soefair_assert(armed(inst), "removing an unarmed IQ op");
        const std::size_t s = inst->robSlot;
        armedBits[s >> 6] &= ~(std::uint64_t(1) << (s & 63));
        --count;
    }

    /** Drop everything (thread-switch drain). */
    void
    squashAll()
    {
        for (std::uint64_t &w : armedBits)
            w = 0;
        count = 0;
    }

    /**
     * Visit armed slots in ring order starting at `from` (the ROB
     * head slot) and wrapping: oldest first. visit(slot) returns
     * false to stop the walk. Bits armed during a visit are seen if
     * they lie ahead of the cursor, and every op armed by an issuing
     * producer is younger than it, so it always does.
     */
    template <typename Visit>
    void
    forEachArmed(std::size_t from, Visit &&visit)
    {
        if (scan(from, slots, visit))
            scan(0, from, visit);
    }

  private:
    template <typename Visit>
    bool
    scan(std::size_t lo, std::size_t hi, Visit &visit)
    {
        std::size_t i = lo;
        while (i < hi) {
            const std::size_t w = i >> 6;
            std::uint64_t bits = armedBits[w] >> (i & 63);
            const std::size_t left = hi - i;
            if (left < 64)
                bits &= (std::uint64_t(1) << left) - 1;
            if (!bits) {
                i = (w + 1) << 6;
                continue;
            }
            i += std::size_t(__builtin_ctzll(bits));
            if (!visit(i))
                return false;
            ++i;
        }
        return true;
    }

    unsigned cap;
    std::size_t slots;
    unsigned count = 0;
    std::vector<std::uint64_t> armedBits;
};

} // namespace cpu
} // namespace soefair

#endif // SOEFAIR_CPU_ISSUE_QUEUE_HH
