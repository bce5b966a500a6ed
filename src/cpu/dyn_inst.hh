/**
 * @file
 * Dynamic (in-flight) instruction record.
 *
 * DynInsts live in the ROB's InstRing from dispatch to retirement;
 * the rename table, issue queue and load/store queues hold pointers
 * into that ring (slots are preallocated and stable between push and
 * pop, and a full-pipeline squash drops every reference before
 * entries are recycled).
 *
 * Operand wakeup is producer-driven. At dispatch a consumer links
 * itself into the consumer list of every producer that has not yet
 * issued (pendingSrcs counts them) and folds the completion tick of
 * every producer that has issued into srcReadyTick. When a producer
 * issues it walks its list once: each consumer drops the producer
 * pointer, decrements pendingSrcs and folds in the producer's
 * completion tick. Because completionTick is written exactly once, at
 * issue, `pendingSrcs == 0 && srcReadyTick <= now` holds exactly when
 * every source producer has completed by `now`.
 */

#ifndef SOEFAIR_CPU_DYN_INST_HH
#define SOEFAIR_CPU_DYN_INST_HH

#include <algorithm>
#include <cstdint>

#include "cpu/branch_predictor.hh"
#include "isa/micro_op.hh"
#include "sim/types.hh"

namespace soefair
{
namespace cpu
{

struct DynInst
{
    // Small fields first so they share one word after `op`: the ROB
    // copies every dispatched DynInst once, so padding costs time.
    isa::MicroOp op;
    ThreadID tid = 0;
    bool inRob = false;
    bool issued = false;
    /** Load or TLB walk reached main memory (the SOE switch event). */
    bool l2Miss = false;
    /** Load missed the L1D (Section 6's extended switch event). */
    bool l1Miss = false;
    /** Front end could not follow this branch (known at fetch). */
    bool mispredicted = false;
    /** Number of non-null src entries (producers yet to issue). */
    std::uint8_t pendingSrcs = 0;
    /** Ring slot index of this entry while it is in the ROB. */
    std::uint32_t robSlot = 0;

    /** Earliest tick the dispatch stage may consume this op. */
    Tick dispatchReadyTick = 0;
    /** Data-available tick once issued. */
    Tick completionTick = maxTick;
    /** Latest completion tick among already-issued producers. */
    Tick srcReadyTick = 0;

    /**
     * Producers of the source operands that had not issued at the
     * time this op dispatched and still have not; nullptr once the
     * producer issued (or if the operand never waited on one). A
     * producer feeding both sources is linked once, through src[0].
     */
    DynInst *src[2] = {nullptr, nullptr};
    /** Head of this op's consumer list (linked through nextConsumer). */
    DynInst *firstConsumer = nullptr;
    /** Next consumer in src[k]'s list, for each source slot k. */
    DynInst *nextConsumer[2] = {nullptr, nullptr};

    /** Prediction made at fetch; trained when the branch executes. */
    BranchPredictor::Prediction pred;

    bool
    completedBy(Tick now) const
    {
        return issued && completionTick <= now;
    }

    /** Every source producer has completed by `now`. */
    bool
    srcsReady(Tick now) const
    {
        return pendingSrcs == 0 && srcReadyTick <= now;
    }

    /**
     * Dispatch-time dependences on the in-flight producers of the two
     * source operands (nullptr: the value is architectural). A
     * producer feeding both operands is linked once.
     */
    void
    dependOn(DynInst *p0, DynInst *p1)
    {
        if (p0)
            linkSource(0, *p0);
        if (p1 && p1 != p0)
            linkSource(1, *p1);
    }

    /**
     * Issue-time wakeup: this op has its completion tick. Unlink every
     * consumer and call armed(consumer) for each one that has no
     * producer left to wait for.
     */
    template <typename Armed>
    void
    wakeConsumers(Armed &&armed)
    {
        DynInst *c = firstConsumer;
        firstConsumer = nullptr;
        while (c) {
            const unsigned k = c->src[0] == this ? 0 : 1;
            DynInst *next = c->nextConsumer[k];
            c->src[k] = nullptr;
            c->nextConsumer[k] = nullptr;
            c->srcReadyTick = std::max(c->srcReadyTick, completionTick);
            if (--c->pendingSrcs == 0)
                armed(c);
            c = next;
        }
    }

  private:
    /**
     * Wait for `producer` through source slot k: for its issue if it
     * has not issued yet, otherwise for its known completion tick.
     */
    void
    linkSource(unsigned k, DynInst &producer)
    {
        if (producer.issued) {
            srcReadyTick = std::max(srcReadyTick, producer.completionTick);
            return;
        }
        src[k] = &producer;
        nextConsumer[k] = producer.firstConsumer;
        producer.firstConsumer = this;
        ++pendingSrcs;
    }
};

} // namespace cpu
} // namespace soefair

#endif // SOEFAIR_CPU_DYN_INST_HH
