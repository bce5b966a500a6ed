/**
 * @file
 * Re-order buffer: the in-order backbone of the core.
 *
 * DynInsts enter at dispatch and leave at retirement (head) or on a
 * full-pipeline squash (thread switch drain). The SOE switch trigger
 * lives at the head of this structure: a head instruction flagged
 * with an unresolved L2 miss is the paper's switch event.
 */

#ifndef SOEFAIR_CPU_ROB_HH
#define SOEFAIR_CPU_ROB_HH

#include "cpu/dyn_inst.hh"
#include "cpu/inst_ring.hh"
#include "sim/invariant.hh"
#include "sim/logging.hh"

namespace soefair
{
namespace cpu
{

class Rob
{
  public:
    explicit Rob(unsigned capacity) : entries(capacity) {}

    bool full() const { return entries.full(); }
    bool empty() const { return entries.empty(); }
    std::size_t size() const { return entries.size(); }
    unsigned capacity() const { return unsigned(entries.capacity()); }

    /**
     * Ring slots (a power of two >= capacity). DynInst::robSlot
     * indexes them; walking upward from headSlot() and wrapping is
     * oldest-first order.
     */
    std::size_t slotCount() const { return entries.slotCount(); }
    std::size_t headSlot() const { return entries.frontSlot(); }
    DynInst &slot(std::size_t s) { return entries.slot(s); }

    /** Copy `inst` in at the tail; returns the stable ROB entry. */
    DynInst &
    push(const DynInst &inst)
    {
        soefair_assert(!full(), "push to full ROB");
        soefair_assert(entries.empty() ||
                       inst.op.seqNum == entries.back().op.seqNum + 1,
                       "ROB must stay in program order");
        const std::size_t s = entries.tailSlot();
        DynInst &e = entries.pushBack(inst);
        e.robSlot = std::uint32_t(s);
        e.inRob = true;
        return e;
    }

    DynInst &
    head()
    {
        soefair_assert(!empty(), "head of empty ROB");
        return entries.front();
    }

    void
    popHead()
    {
        soefair_assert(!empty(), "pop of empty ROB");
        // Retirement is the cycle-accurate bookkeeping the fairness
        // counters hang off: the head must be the oldest in-flight
        // instruction (seqNums are dense in program order).
        SOE_AUDIT(entries.size() < 2 ||
                  entries.at(0).op.seqNum + 1 == entries.at(1).op.seqNum,
                  "ROB head out of program order");
        entries.front().inRob = false;
        entries.popFront();
    }

    /** Drop everything (thread-switch drain). */
    void
    squashAll()
    {
        for (auto &e : entries)
            e.inRob = false;
        entries.clear();
    }

    /**
     * Earliest completion tick strictly after `now` among issued,
     * not-yet-complete entries, or maxTick. This is the only tick at
     * which a quiescent back end (nothing retiring, issuing or
     * dispatching) can next change state: the fast-forward engine
     * jumps to the minimum of these wake ticks.
     */
    Tick
    nextCompletionTick(Tick now) const
    {
        Tick wake = maxTick;
        for (const auto &e : entries) {
            if (e.issued && e.completionTick > now &&
                e.completionTick < wake) {
                wake = e.completionTick;
            }
        }
        return wake;
    }

    /** In-order iteration (oldest first). */
    auto begin() { return entries.begin(); }
    auto end() { return entries.end(); }
    auto begin() const { return entries.begin(); }
    auto end() const { return entries.end(); }

  private:
    InstRing entries;
};

} // namespace cpu
} // namespace soefair

#endif // SOEFAIR_CPU_ROB_HH
