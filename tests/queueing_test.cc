// Tests for the queueing substrates: the random-access input buffer with
// eligible-flow lists, and the FIFO ring behind every per-flow and
// output queue.
#include <gtest/gtest.h>

#include "an2/base/ring.h"
#include "an2/matching/wordset.h"
#include "an2/queueing/voq.h"

namespace an2 {
namespace {

Cell
makeCell(FlowId flow, PortId input, PortId output, int64_t seq)
{
    Cell c;
    c.flow = flow;
    c.input = input;
    c.output = output;
    c.seq = seq;
    return c;
}

// ---------------------------------------------------------- InputBuffer

TEST(InputBufferTest, CountsPerOutput)
{
    InputBuffer buf(4);
    buf.enqueue(makeCell(0, 0, 1, 0));
    buf.enqueue(makeCell(0, 0, 1, 1));
    buf.enqueue(makeCell(1, 0, 2, 0));
    EXPECT_EQ(buf.totalCells(), 3);
    EXPECT_EQ(buf.cellCountFor(1), 2);
    EXPECT_EQ(buf.cellCountFor(2), 1);
    EXPECT_EQ(buf.cellCountFor(0), 0);
    EXPECT_TRUE(buf.hasCellFor(1));
    EXPECT_FALSE(buf.hasCellFor(3));
}

TEST(InputBufferTest, PerFlowFifoOrder)
{
    InputBuffer buf(4);
    for (int s = 0; s < 10; ++s)
        buf.enqueue(makeCell(0, 0, 2, s));
    for (int s = 0; s < 10; ++s)
        EXPECT_EQ(buf.dequeueFor(2).seq, s);
}

TEST(InputBufferTest, RoundRobinAmongFlowsOfSameOutput)
{
    // Two flows, both to output 1; service must alternate (§3.3).
    InputBuffer buf(4);
    for (int s = 0; s < 3; ++s) {
        buf.enqueue(makeCell(10, 0, 1, s));
        buf.enqueue(makeCell(20, 0, 1, s));
    }
    std::vector<FlowId> order;
    while (buf.hasCellFor(1))
        order.push_back(buf.dequeueFor(1).flow);
    ASSERT_EQ(order.size(), 6u);
    EXPECT_EQ(order[0], 10);
    EXPECT_EQ(order[1], 20);
    EXPECT_EQ(order[2], 10);
    EXPECT_EQ(order[3], 20);
}

TEST(InputBufferTest, EligibleFlowCount)
{
    InputBuffer buf(4);
    EXPECT_EQ(buf.eligibleFlowsFor(1), 0);
    buf.enqueue(makeCell(1, 0, 1, 0));
    buf.enqueue(makeCell(2, 0, 1, 0));
    buf.enqueue(makeCell(1, 0, 1, 1));
    EXPECT_EQ(buf.eligibleFlowsFor(1), 2);
}

TEST(InputBufferTest, DequeueEmptyOutputRejected)
{
    InputBuffer buf(4);
    EXPECT_THROW(buf.dequeueFor(0), UsageError);
}

TEST(InputBufferTest, DequeueSpecificFlow)
{
    InputBuffer buf(4);
    buf.enqueue(makeCell(5, 0, 3, 0));
    buf.enqueue(makeCell(6, 0, 3, 0));
    EXPECT_TRUE(buf.flowHasCell(6));
    Cell c = buf.dequeueFlow(6);
    EXPECT_EQ(c.flow, 6);
    EXPECT_FALSE(buf.flowHasCell(6));
    EXPECT_EQ(buf.cellCountFor(3), 1);
}

TEST(InputBufferTest, StaleEligibleEntryAfterDequeueFlow)
{
    // dequeueFlow leaves a stale entry in the eligible list; a later
    // dequeueFor must skip it and still find the live flow.
    InputBuffer buf(4);
    buf.enqueue(makeCell(1, 0, 2, 0));  // flow 1 listed first
    buf.enqueue(makeCell(2, 0, 2, 0));
    buf.dequeueFlow(1);  // empties flow 1, entry goes stale
    ASSERT_TRUE(buf.hasCellFor(2));
    EXPECT_EQ(buf.dequeueFor(2).flow, 2);
    EXPECT_FALSE(buf.hasCellFor(2));
}

TEST(InputBufferTest, ReEnqueueAfterStaleEntryStillReachable)
{
    InputBuffer buf(4);
    buf.enqueue(makeCell(1, 0, 2, 0));
    buf.dequeueFlow(1);  // stale but still listed
    buf.enqueue(makeCell(1, 0, 2, 1));  // flag prevents double listing
    EXPECT_EQ(buf.dequeueFor(2).seq, 1);
    EXPECT_EQ(buf.totalCells(), 0);
}

TEST(InputBufferTest, InvalidCellsRejected)
{
    InputBuffer buf(2);
    Cell no_flow = makeCell(kNoFlow, 0, 0, 0);
    EXPECT_THROW(buf.enqueue(no_flow), UsageError);
    Cell bad_out = makeCell(0, 0, 5, 0);
    EXPECT_THROW(buf.enqueue(bad_out), UsageError);
}

TEST(InputBufferTest, FlowCannotChangeOutput)
{
    // All cells of a flow take the same path (paper §2); a cell of an
    // existing flow claiming a different output is a routing bug.
    InputBuffer buf(4);
    buf.enqueue(makeCell(1, 0, 2, 0));
    EXPECT_THROW(buf.enqueue(makeCell(1, 0, 3, 1)), UsageError);
    // The original output remains bound even after the queue drains.
    buf.dequeueFor(2);
    EXPECT_THROW(buf.enqueue(makeCell(1, 0, 3, 1)), UsageError);
    EXPECT_NO_THROW(buf.enqueue(makeCell(1, 0, 2, 1)));
}

TEST(InputBufferTest, DequeueFlowWithoutCellRejected)
{
    InputBuffer buf(2);
    EXPECT_THROW(buf.dequeueFlow(3), UsageError);
}

// ------------------------------------------------- InputBuffer occupancy

TEST(InputBufferTest, OccupancyMaskTracksQueuedOutputs)
{
    InputBuffer buf(70);  // two mask words
    EXPECT_EQ(buf.occupancyWords(), 2);
    EXPECT_FALSE(wordset::anySet(buf.occupancyMask(), 2));

    buf.enqueue(makeCell(1, 0, 3, 0));
    buf.enqueue(makeCell(1, 0, 3, 1));
    buf.enqueue(makeCell(2, 0, 68, 2));
    EXPECT_TRUE(wordset::testBit(buf.occupancyMask(), 3));
    EXPECT_TRUE(wordset::testBit(buf.occupancyMask(), 68));
    EXPECT_EQ(wordset::popcountAll(buf.occupancyMask(), 2), 2);

    // The bit stays while any cell remains, clears on the last dequeue.
    buf.dequeueFor(3);
    EXPECT_TRUE(wordset::testBit(buf.occupancyMask(), 3));
    buf.dequeueFor(3);
    EXPECT_FALSE(wordset::testBit(buf.occupancyMask(), 3));
    buf.dequeueFor(68);
    EXPECT_FALSE(wordset::anySet(buf.occupancyMask(), 2));
}

TEST(InputBufferTest, OccupancyMaskTracksDequeueFlow)
{
    InputBuffer buf(8);
    buf.enqueue(makeCell(5, 0, 2, 0));
    EXPECT_TRUE(wordset::testBit(buf.occupancyMask(), 2));
    buf.dequeueFlow(5);
    EXPECT_FALSE(wordset::testBit(buf.occupancyMask(), 2));
}

// ------------------------------------------------------------- RingQueue

TEST(RingQueueTest, FifoOrderAcrossGrowth)
{
    RingQueue<int> q;
    EXPECT_TRUE(q.empty());
    for (int i = 0; i < 100; ++i)
        q.push_back(i);
    EXPECT_EQ(q.size(), 100u);
    EXPECT_EQ(q.at(7), 7);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(q.front(), i);
        q.pop_front();
    }
    EXPECT_TRUE(q.empty());
}

TEST(RingQueueTest, RotationWrapsAroundStorage)
{
    // pop_front + push_back cycles far beyond the capacity: the head
    // index must wrap without corrupting FIFO order.
    RingQueue<int> q;
    for (int i = 0; i < 5; ++i)
        q.push_back(i);
    for (int i = 5; i < 500; ++i) {
        EXPECT_EQ(q.front(), i - 5);
        q.pop_front();
        q.push_back(i);
    }
    EXPECT_EQ(q.size(), 5u);
    for (int i = 495; i < 500; ++i) {
        EXPECT_EQ(q.front(), i);
        q.pop_front();
    }
}

TEST(RingQueueTest, ClearResetsWithoutShrinking)
{
    RingQueue<int> q;
    for (int i = 0; i < 20; ++i)
        q.push_back(i);
    q.clear();
    EXPECT_TRUE(q.empty());
    q.push_back(42);
    EXPECT_EQ(q.front(), 42);
}

TEST(RingQueueTest, PopEmptyPanics)
{
    RingQueue<Cell> q;
    EXPECT_THROW(q.pop_front(), InternalError);
    EXPECT_THROW(q.front(), InternalError);
    // Drained storage stays allocated; the guard is the size, not the
    // buffer.
    q.push_back(makeCell(0, 0, 0, 1));
    q.pop_front();
    EXPECT_THROW(q.pop_front(), InternalError);
}

}  // namespace
}  // namespace an2
