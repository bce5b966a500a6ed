/**
 * @file
 * Replay window between a generator and the core's front end.
 *
 * An out-of-order core squashes and refetches instructions (branch
 * mispredicts, thread-switch drains). The generator is forward-only,
 * so InstStream buffers every generated-but-unretired micro-op: a
 * squash simply rewinds the read cursor and the same ops are handed
 * out again, guaranteeing that the retired stream is independent of
 * timing. Retirement trims the buffer from the front.
 *
 * The window is a power-of-two ring indexed with a mask. It starts
 * large enough for any in-flight window the core can hold (ROB plus
 * fetch buffer) and doubles only if it ever fills, so steady-state
 * fetch, squash and commit neither allocate nor free.
 */

#ifndef SOEFAIR_WORKLOAD_INST_STREAM_HH
#define SOEFAIR_WORKLOAD_INST_STREAM_HH

#include <cstddef>
#include <vector>

#include "isa/micro_op.hh"
#include "sim/types.hh"
#include "workload/source.hh"

namespace soefair
{
namespace workload
{

class InstStream
{
  public:
    explicit InstStream(InstSource &src)
        : source(src), ring(initialSlots), mask(initialSlots - 1)
    {}

    /**
     * Next micro-op at the fetch cursor (generates on demand). The
     * reference stays valid until the next peek() or fetchNext().
     */
    const isa::MicroOp &fetchNext();

    /** Peek the op that fetchNext() would return, without advancing. */
    const isa::MicroOp &peek();

    /**
     * Rewind the fetch cursor so the op *after* seq is fetched next.
     * seq = 0 (invalidSeqNum) rewinds to the oldest unretired op.
     * Every op with seqNum > seq must still be buffered.
     */
    void squashAfter(InstSeqNum seq);

    /** Retire (drop) all buffered ops with seqNum <= seq. */
    void commitUpTo(InstSeqNum seq);

    /** Number of buffered (unretired) ops. */
    std::size_t buffered() const { return count; }

    /** Sequence number of the oldest unretired op (0 if none). */
    InstSeqNum
    oldestSeq() const
    {
        return count == 0 ? invalidSeqNum : ring[head].seqNum;
    }

    InstSource &src() { return source; }

  private:
    /**
     * Ring slots to start with: covers the default core's in-flight
     * window (96 ROB + 16 fetch-buffer entries + one peeked op).
     */
    static constexpr std::size_t initialSlots = 128;

    /** The i-th oldest buffered op. */
    isa::MicroOp &at(std::size_t i) { return ring[(head + i) & mask]; }

    /** Double the ring, keeping the buffered ops in order. */
    void grow();

    InstSource &source;
    /** Buffered ops: count entries starting at slot head. */
    std::vector<isa::MicroOp> ring;
    std::size_t mask;
    std::size_t head = 0;
    std::size_t count = 0;
    /** Offset from head of the next op to hand to fetch. */
    std::size_t readIdx = 0;
};

} // namespace workload
} // namespace soefair

#endif // SOEFAIR_WORKLOAD_INST_STREAM_HH
