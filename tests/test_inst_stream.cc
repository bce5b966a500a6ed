/** @file Unit tests for the fetch/squash/commit replay window. */

#include <gtest/gtest.h>

#include "workload/generator.hh"
#include "workload/inst_stream.hh"
#include "workload/profile.hh"

using namespace soefair;
using namespace soefair::workload;

namespace
{

struct Fixture
{
    Fixture() : gen(spec::byName("gcc"), 0, 21), stream(gen) {}
    WorkloadGenerator gen;
    InstStream stream;
};

} // namespace

TEST(InstStream, FetchIsSequential)
{
    Fixture f;
    for (InstSeqNum i = 1; i <= 100; ++i)
        EXPECT_EQ(f.stream.fetchNext().seqNum, i);
}

TEST(InstStream, PeekDoesNotAdvance)
{
    Fixture f;
    EXPECT_EQ(f.stream.peek().seqNum, 1u);
    EXPECT_EQ(f.stream.peek().seqNum, 1u);
    EXPECT_EQ(f.stream.fetchNext().seqNum, 1u);
    EXPECT_EQ(f.stream.peek().seqNum, 2u);
}

TEST(InstStream, SquashReplaysIdenticalOps)
{
    Fixture f;
    std::vector<isa::MicroOp> first;
    for (int i = 0; i < 50; ++i)
        first.push_back(f.stream.fetchNext());

    // Retire the first 10, squash the rest.
    f.stream.commitUpTo(10);
    f.stream.squashAfter(10);

    for (int i = 10; i < 50; ++i) {
        const isa::MicroOp &op = f.stream.fetchNext();
        EXPECT_EQ(op.seqNum, first[std::size_t(i)].seqNum);
        EXPECT_EQ(op.pc, first[std::size_t(i)].pc);
        EXPECT_EQ(op.memAddr, first[std::size_t(i)].memAddr);
        EXPECT_EQ(op.taken, first[std::size_t(i)].taken);
    }
}

TEST(InstStream, SquashToOldestUnretired)
{
    Fixture f;
    for (int i = 0; i < 30; ++i)
        f.stream.fetchNext();
    f.stream.commitUpTo(12);
    f.stream.squashAfter(invalidSeqNum); // full squash
    EXPECT_EQ(f.stream.fetchNext().seqNum, 13u);
}

TEST(InstStream, CommitTrimsWindow)
{
    Fixture f;
    for (int i = 0; i < 100; ++i)
        f.stream.fetchNext();
    EXPECT_EQ(f.stream.buffered(), 100u);
    f.stream.commitUpTo(60);
    EXPECT_EQ(f.stream.buffered(), 40u);
    EXPECT_EQ(f.stream.oldestSeq(), 61u);
}

TEST(InstStream, CommitThenFetchContinues)
{
    Fixture f;
    for (int i = 0; i < 20; ++i)
        f.stream.fetchNext();
    f.stream.commitUpTo(20);
    EXPECT_EQ(f.stream.buffered(), 0u);
    EXPECT_EQ(f.stream.fetchNext().seqNum, 21u);
}

TEST(InstStream, RepeatedSquashReplayIsStable)
{
    Fixture f;
    std::vector<Addr> pcs;
    for (int i = 0; i < 40; ++i)
        pcs.push_back(f.stream.fetchNext().pc);
    for (int round = 0; round < 5; ++round) {
        f.stream.squashAfter(invalidSeqNum);
        for (int i = 0; i < 40; ++i)
            EXPECT_EQ(f.stream.fetchNext().pc, pcs[std::size_t(i)]);
    }
}

TEST(InstStream, WindowBoundedByCommit)
{
    // Fetch+commit in lockstep keeps the window small regardless of
    // total instructions, proving memory stays bounded.
    Fixture f;
    for (int i = 1; i <= 100000; ++i) {
        f.stream.fetchNext();
        if (i % 64 == 0)
            f.stream.commitUpTo(InstSeqNum(i - 32));
        ASSERT_LE(f.stream.buffered(), 96u);
    }
}

TEST(InstStream, ReplayAndCommitAcrossRingWrapAndGrowth)
{
    // An independent generator with the same seed is the reference
    // stream.
    Fixture f;
    WorkloadGenerator refGen(spec::byName("gcc"), 0, 21);
    std::vector<isa::MicroOp> ref;
    auto expectOp = [&](const isa::MicroOp &op) {
        while (ref.size() < op.seqNum)
            ref.push_back(refGen.next());
        const isa::MicroOp &want = ref[std::size_t(op.seqNum - 1)];
        ASSERT_EQ(op.pc, want.pc) << "seq " << op.seqNum;
        ASSERT_EQ(op.memAddr, want.memAddr) << "seq " << op.seqNum;
        ASSERT_EQ(op.taken, want.taken) << "seq " << op.seqNum;
    };

    // Phase 1: a window of ~100 ops slides through many laps of the
    // ring, squashing back to the oldest op every lap.
    InstSeqNum fetched = 0;
    for (int lap = 0; lap < 20; ++lap) {
        for (int i = 0; i < 100; ++i) {
            const isa::MicroOp &op = f.stream.fetchNext();
            ASSERT_EQ(op.seqNum, ++fetched);
            expectOp(op);
        }
        f.stream.commitUpTo(fetched - 40);
        f.stream.squashAfter(invalidSeqNum);
        fetched -= 40;
        ASSERT_EQ(f.stream.oldestSeq(), fetched + 1);
    }

    // Phase 2: no commits for far longer than the ring holds, so the
    // ring has to grow with a wrapped head; the replay must survive.
    const InstSeqNum oldest = f.stream.oldestSeq();
    for (int i = 0; i < 700; ++i)
        expectOp(f.stream.fetchNext());
    EXPECT_EQ(f.stream.buffered(), 700u);
    f.stream.squashAfter(oldest + 99);
    for (int i = 0; i < 640; ++i) {
        const isa::MicroOp &op = f.stream.fetchNext();
        ASSERT_EQ(op.seqNum, oldest + 100 + InstSeqNum(i));
        expectOp(op);
    }

    // Phase 3: commit most of it and keep sliding in the grown ring.
    f.stream.commitUpTo(oldest + 700);
    EXPECT_EQ(f.stream.buffered(), 39u);
    f.stream.squashAfter(invalidSeqNum);
    for (int i = 0; i < 3000; ++i) {
        const isa::MicroOp &op = f.stream.fetchNext();
        ASSERT_EQ(op.seqNum, oldest + 701 + InstSeqNum(i));
        expectOp(op);
        if (i % 50 == 49)
            f.stream.commitUpTo(op.seqNum - 20);
    }
}
