#include "workload/inst_stream.hh"

#include "sim/logging.hh"

namespace soefair
{
namespace workload
{

const isa::MicroOp &
InstStream::fetchNext()
{
    const isa::MicroOp &op = peek();
    ++readIdx;
    return op;
}

const isa::MicroOp &
InstStream::peek()
{
    if (readIdx == count) {
        if (count == ring.size())
            grow();
        at(count) = source.next();
        ++count;
    }
    soefair_assert(readIdx < count, "InstStream cursor bad");
    return at(readIdx);
}

void
InstStream::grow()
{
    std::vector<isa::MicroOp> bigger(ring.size() * 2);
    for (std::size_t i = 0; i < count; ++i)
        bigger[i] = at(i);
    ring.swap(bigger);
    mask = ring.size() - 1;
    head = 0;
}

void
InstStream::squashAfter(InstSeqNum seq)
{
    if (count == 0) {
        soefair_assert(seq == invalidSeqNum || readIdx == 0,
                       "squash with empty window");
        readIdx = 0;
        return;
    }
    const InstSeqNum front = ring[head].seqNum;
    if (seq == invalidSeqNum || seq + 1 < front) {
        readIdx = 0;
        return;
    }
    // Ops are buffered with contiguous seqNums.
    std::size_t idx = std::size_t(seq + 1 - front);
    soefair_assert(idx <= count,
                   "squashAfter(", seq, ") beyond generated stream");
    readIdx = idx;
}

void
InstStream::commitUpTo(InstSeqNum seq)
{
    while (count != 0 && ring[head].seqNum <= seq) {
        soefair_assert(readIdx > 0,
                       "committing an op that was never fetched");
        head = (head + 1) & mask;
        --count;
        --readIdx;
    }
}

} // namespace workload
} // namespace soefair
