/** @file Unit tests for the ROB, rename table, issue queue and InstRing. */

#include <gtest/gtest.h>

#include <vector>

#include "cpu/inst_ring.hh"
#include "cpu/issue_queue.hh"
#include "cpu/rename.hh"
#include "cpu/rob.hh"

using namespace soefair;
using namespace soefair::cpu;
using namespace soefair::isa;

namespace
{

DynInst
makeInst(InstSeqNum seq, RegId dest = invalidReg)
{
    DynInst i;
    i.op.seqNum = seq;
    i.op.dest = dest;
    return i;
}

} // namespace

TEST(Rob, PushPopInOrder)
{
    Rob rob(4);
    rob.push(makeInst(1));
    rob.push(makeInst(2));
    EXPECT_EQ(rob.head().op.seqNum, 1u);
    rob.popHead();
    EXPECT_EQ(rob.head().op.seqNum, 2u);
    EXPECT_EQ(rob.size(), 1u);
}

TEST(Rob, FullnessAndCapacity)
{
    Rob rob(2);
    rob.push(makeInst(1));
    EXPECT_FALSE(rob.full());
    rob.push(makeInst(2));
    EXPECT_TRUE(rob.full());
    EXPECT_THROW(rob.push(makeInst(3)), PanicError);
}

TEST(Rob, RejectsOutOfOrderSeq)
{
    Rob rob(4);
    rob.push(makeInst(5));
    EXPECT_THROW(rob.push(makeInst(7)), PanicError);
}

TEST(Rob, SquashAllEmpties)
{
    Rob rob(4);
    DynInst &a = rob.push(makeInst(1));
    rob.push(makeInst(2));
    EXPECT_TRUE(a.inRob);
    rob.squashAll();
    EXPECT_TRUE(rob.empty());
}

TEST(Rob, PopOfEmptyPanics)
{
    Rob rob(2);
    EXPECT_THROW(rob.popHead(), PanicError);
    EXPECT_THROW(rob.head(), PanicError);
}

TEST(Rename, TracksYoungestProducer)
{
    Rob rob(8);
    RenameTable rat;
    DynInst &a = rob.push(makeInst(1, 5));
    rat.setProducer(&a);
    EXPECT_EQ(rat.producer(5), &a);
    DynInst &b = rob.push(makeInst(2, 5));
    rat.setProducer(&b);
    EXPECT_EQ(rat.producer(5), &b);
}

TEST(Rename, InvalidRegHasNoProducer)
{
    RenameTable rat;
    EXPECT_EQ(rat.producer(invalidReg), nullptr);
}

TEST(Rename, RetireClearsOnlyIfStillMapped)
{
    Rob rob(8);
    RenameTable rat;
    DynInst &a = rob.push(makeInst(1, 3));
    rat.setProducer(&a);
    DynInst &b = rob.push(makeInst(2, 3));
    rat.setProducer(&b);
    // Retiring the older producer must not clear the younger mapping.
    rat.retire(&a);
    EXPECT_EQ(rat.producer(3), &b);
    rat.retire(&b);
    EXPECT_EQ(rat.producer(3), nullptr);
}

TEST(Rename, ClearResetsAll)
{
    Rob rob(8);
    RenameTable rat;
    DynInst &a = rob.push(makeInst(1, 0));
    rat.setProducer(&a);
    rat.clear();
    EXPECT_EQ(rat.producer(0), nullptr);
}

namespace
{

/** Issue `p` with completion tick `done`, arming its consumers. */
void
issueInto(IssueQueue &iq, DynInst &p, Tick done)
{
    p.issued = true;
    p.completionTick = done;
    p.wakeConsumers([&](DynInst *c) { iq.arm(c); });
}

/** seqNums of the armed ops in walk order from the ROB head. */
std::vector<InstSeqNum>
armedOrder(IssueQueue &iq, Rob &rob)
{
    std::vector<InstSeqNum> seqs;
    iq.forEachArmed(rob.headSlot(), [&](std::size_t s) {
        seqs.push_back(rob.slot(s).op.seqNum);
        return true;
    });
    return seqs;
}

} // namespace

TEST(IssueQueue, FullRejectsInsert)
{
    Rob rob(8);
    IssueQueue iq(1, rob.slotCount());
    DynInst &a = rob.push(makeInst(1));
    iq.insert(&a);
    DynInst &b = rob.push(makeInst(2));
    EXPECT_THROW(iq.insert(&b), PanicError);
}

TEST(IssueQueue, OldestFirstAcrossRingWrap)
{
    // 6 entries round up to 8 slots; retiring 5 puts the head at slot
    // 5, so the next six ops occupy slots 5, 6, 7, 0, 1, 2.
    Rob rob(6);
    IssueQueue iq(6, rob.slotCount());
    ASSERT_EQ(rob.slotCount(), 8u);
    InstSeqNum seq = 1;
    for (; seq <= 5; ++seq) {
        rob.push(makeInst(seq));
        rob.popHead();
    }
    EXPECT_EQ(rob.headSlot(), 5u);
    // Insert out of slot order: the walk order must still be age.
    std::vector<DynInst *> ops;
    for (int i = 0; i < 6; ++i)
        ops.push_back(&rob.push(makeInst(seq++)));
    for (int i : {3, 0, 5, 1, 4, 2})
        iq.insert(ops[std::size_t(i)]);
    EXPECT_EQ(ops[3]->robSlot, 0u);
    EXPECT_EQ(armedOrder(iq, rob),
              (std::vector<InstSeqNum>{6, 7, 8, 9, 10, 11}));

    // Removing (issuing) an op drops it from the walk; a false return
    // stops the walk.
    iq.remove(ops[1]);
    iq.remove(ops[4]);
    EXPECT_EQ(iq.size(), 4u);
    EXPECT_EQ(armedOrder(iq, rob),
              (std::vector<InstSeqNum>{6, 8, 9, 11}));
    std::vector<InstSeqNum> firstTwo;
    iq.forEachArmed(rob.headSlot(), [&](std::size_t s) {
        firstTwo.push_back(rob.slot(s).op.seqNum);
        return firstTwo.size() < 2;
    });
    EXPECT_EQ(firstTwo, (std::vector<InstSeqNum>{6, 8}));
}

TEST(IssueQueue, ArmedOnlyAfterLastProducerIssues)
{
    Rob rob(8);
    IssueQueue iq(8, rob.slotCount());
    DynInst &p0 = rob.push(makeInst(1, 1));
    DynInst &p1 = rob.push(makeInst(2, 2));
    DynInst &c = rob.push(makeInst(3));
    iq.insert(&p0);
    iq.insert(&p1);
    c.dependOn(&p0, &p1);
    iq.insert(&c);
    EXPECT_EQ(c.pendingSrcs, 2u);
    EXPECT_FALSE(iq.armed(&c));
    EXPECT_EQ(armedOrder(iq, rob), (std::vector<InstSeqNum>{1, 2}));

    iq.remove(&p1);
    issueInto(iq, p1, 40);
    EXPECT_EQ(c.src[1], nullptr);
    EXPECT_EQ(c.src[0], &p0);
    EXPECT_FALSE(iq.armed(&c));
    EXPECT_FALSE(c.srcsReady(1000));

    iq.remove(&p0);
    issueInto(iq, p0, 30);
    EXPECT_TRUE(iq.armed(&c));
    EXPECT_EQ(c.src[0], nullptr);
    EXPECT_EQ(p0.firstConsumer, nullptr);
    // Ready at the later of the two completions, not before.
    EXPECT_FALSE(c.srcsReady(39));
    EXPECT_TRUE(c.srcsReady(40));
    EXPECT_EQ(armedOrder(iq, rob), (std::vector<InstSeqNum>{3}));
}

TEST(IssueQueue, OneProducerFeedsBothSources)
{
    Rob rob(8);
    IssueQueue iq(8, rob.slotCount());
    DynInst &p = rob.push(makeInst(1, 4));
    DynInst &c = rob.push(makeInst(2));
    c.dependOn(&p, &p);
    iq.insert(&c);
    EXPECT_EQ(c.pendingSrcs, 1u);
    EXPECT_EQ(c.src[0], &p);
    EXPECT_EQ(c.src[1], nullptr);

    unsigned arms = 0;
    p.issued = true;
    p.completionTick = 12;
    p.wakeConsumers([&](DynInst *w) {
        EXPECT_EQ(w, &c);
        ++arms;
        iq.arm(w);
    });
    EXPECT_EQ(arms, 1u);
    EXPECT_EQ(c.pendingSrcs, 0u);
    EXPECT_TRUE(c.srcsReady(12));
    EXPECT_TRUE(iq.armed(&c));
}

TEST(IssueQueue, SquashAllClearsFlags)
{
    Rob rob(8);
    IssueQueue iq(4, rob.slotCount());
    DynInst &a = rob.push(makeInst(1));
    DynInst &b = rob.push(makeInst(2));
    b.dependOn(&a, nullptr);
    iq.insert(&a);
    iq.insert(&b);
    EXPECT_TRUE(iq.armed(&a));
    iq.squashAll();
    EXPECT_FALSE(iq.armed(&a));
    EXPECT_TRUE(iq.empty());
    EXPECT_TRUE(armedOrder(iq, rob).empty());
}

TEST(InstRing, FullAtLogicalCapacityAndFifoAcrossWrap)
{
    InstRing ring(96);
    EXPECT_EQ(ring.capacity(), 96u);
    EXPECT_EQ(ring.slotCount(), 128u);
    InstSeqNum pushed = 0;
    InstSeqNum popped = 0;
    // Several laps of the 128-slot array, breathing between full
    // and nearly empty.
    for (int lap = 0; lap < 5; ++lap) {
        while (!ring.full())
            ring.pushBack(makeInst(++pushed));
        EXPECT_EQ(ring.size(), 96u);
        EXPECT_THROW(ring.pushBack(makeInst(pushed + 1)), PanicError);
        for (std::size_t i = 0; i < ring.size(); ++i)
            ASSERT_EQ(ring.at(i).op.seqNum, popped + 1 + i);
        for (int i = 0; i < 90; ++i) {
            ASSERT_EQ(ring.front().op.seqNum, ++popped);
            ring.popFront();
        }
    }
    EXPECT_GT(pushed, 128u * 3);
    EXPECT_EQ(ring.size(), 6u);
}

TEST(DynInst, ReadinessSemantics)
{
    DynInst p;
    p.issued = true;
    p.completionTick = 100;
    EXPECT_FALSE(p.completedBy(99));
    EXPECT_TRUE(p.completedBy(100));

    // An already-issued producer is waited on through its tick.
    DynInst c;
    c.dependOn(&p, nullptr);
    EXPECT_EQ(c.pendingSrcs, 0u);
    EXPECT_FALSE(c.srcsReady(99));
    EXPECT_TRUE(c.srcsReady(100));

    // An unissued producer blocks until it issues and completes.
    DynInst q;
    DynInst d;
    d.dependOn(nullptr, &q);
    EXPECT_EQ(d.src[1], &q);
    EXPECT_FALSE(d.srcsReady(1000));
    q.issued = true;
    q.completionTick = 200;
    q.wakeConsumers([](DynInst *) {});
    EXPECT_FALSE(d.srcsReady(199));
    EXPECT_TRUE(d.srcsReady(200));
}
