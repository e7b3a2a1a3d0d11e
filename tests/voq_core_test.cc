// Tests for the VOQ switch core (an2/sim/voq_core.h): the request matrix
// mirrors the buffers through enqueue, dequeue and flow rebinding; dead
// ports drop arrivals at the line card and stay unmatched; the masked
// matching step hides busy ports without touching the live matrix.
#include "an2/sim/voq_core.h"

#include <gtest/gtest.h>

#include <memory>

#include "an2/base/error.h"
#include "an2/matching/serial_greedy.h"

namespace an2 {
namespace {

VoqCore
makeCore(int n)
{
    return VoqCore(n, std::make_unique<SerialGreedyMatcher>(false), "test");
}

Cell
cell(FlowId flow, PortId in, PortId out, int64_t seq = 0)
{
    Cell c;
    c.flow = flow;
    c.input = in;
    c.output = out;
    c.seq = seq;
    return c;
}

/** Every request count equals the buffers' per-output count. */
void
expectRequestsMirrorBuffers(const VoqCore& core)
{
    for (PortId i = 0; i < core.size(); ++i)
        for (PortId j = 0; j < core.size(); ++j)
            EXPECT_EQ(core.requests().count(i, j),
                      core.input(i).cellCountFor(j))
                << "(" << i << "," << j << ")";
}

TEST(VoqCoreTest, ConfigIsValidated)
{
    EXPECT_THROW(makeCore(0), UsageError);
    EXPECT_THROW(VoqCore(4, nullptr, "test"), UsageError);
}

TEST(VoqCoreTest, RequestsFollowEnqueueAndDequeue)
{
    VoqCore core = makeCore(4);
    core.enqueue(cell(0, 1, 2, 0));
    core.enqueue(cell(0, 1, 2, 1));
    core.enqueue(cell(1, 3, 0));
    EXPECT_EQ(core.requests().count(1, 2), 2);
    EXPECT_EQ(core.requests().numEdges(), 2);
    EXPECT_EQ(core.bufferedCells(), 3);

    Cell c = core.dequeue(1, 2);
    EXPECT_EQ(c.seq, 0);
    EXPECT_EQ(core.requests().count(1, 2), 1);
    core.dequeue(1, 2);
    EXPECT_FALSE(core.requests().has(1, 2));
    expectRequestsMirrorBuffers(core);
}

TEST(VoqCoreTest, RebindFlowMovesRequestsWithCells)
{
    VoqCore core = makeCore(4);
    for (int s = 0; s < 3; ++s)
        core.enqueue(cell(5, 1, 2, s));
    core.enqueue(cell(6, 1, 2));  // another flow stays on output 2
    core.enqueue(cell(7, 0, 2));  // another input is untouched

    core.rebindFlow(5, 3);
    EXPECT_EQ(core.requests().count(1, 2), 1);
    EXPECT_EQ(core.requests().count(1, 3), 3);
    EXPECT_EQ(core.requests().count(0, 2), 1);
    expectRequestsMirrorBuffers(core);

    // Rebinding to the same output, or an unknown flow, changes nothing.
    core.rebindFlow(5, 3);
    core.rebindFlow(42, 0);
    expectRequestsMirrorBuffers(core);

    // The moved requests drain like any other.
    for (int s = 0; s < 3; ++s)
        EXPECT_EQ(core.dequeue(1, 3).seq, s);
    EXPECT_FALSE(core.requests().has(1, 3));
}

TEST(VoqCoreTest, RebindIntoDeadOutputKeepsCountsHidden)
{
    VoqCore core = makeCore(4);
    core.enqueue(cell(5, 1, 2));
    core.setOutputLive(3, false);
    core.rebindFlow(5, 3);
    EXPECT_EQ(core.requests().count(1, 3), 1);
    EXPECT_FALSE(core.requests().has(1, 3));
    core.setOutputLive(3, true);
    EXPECT_TRUE(core.requests().has(1, 3));
    expectRequestsMirrorBuffers(core);
}

TEST(VoqCoreTest, AdmitDropsArrivalsAtDeadPorts)
{
    VoqCore core = makeCore(4);
    core.setInputLive(0, false);
    core.setOutputLive(3, false);
    EXPECT_FALSE(core.inputLive(0));
    EXPECT_FALSE(core.outputLive(3));
    EXPECT_TRUE(core.pairDead(0, 1));
    EXPECT_TRUE(core.pairDead(1, 3));
    EXPECT_FALSE(core.pairDead(1, 2));
    EXPECT_TRUE(core.outputDead(3));

    EXPECT_FALSE(core.admit(cell(0, 0, 1)));
    EXPECT_FALSE(core.admit(cell(1, 1, 3)));
    EXPECT_TRUE(core.admit(cell(2, 1, 2)));
    EXPECT_EQ(core.invariants().dropped(), 2);
    EXPECT_EQ(core.invariants().accepted(), 1);
    EXPECT_THROW(core.admit(cell(3, 4, 0)), UsageError);

    core.setInputLive(0, true);
    core.setOutputLive(3, true);
    EXPECT_FALSE(core.pairDead(0, 3));
    EXPECT_TRUE(core.admit(cell(4, 0, 3)));
}

TEST(VoqCoreTest, MatchNeverGrantsDeadPorts)
{
    VoqCore core = makeCore(4);
    for (PortId i = 0; i < 4; ++i)
        for (PortId j = 0; j < 4; ++j)
            core.enqueue(cell(i * 4 + j, i, j));
    core.setInputLive(1, false);
    core.setOutputLive(2, false);
    Matching m(4, 4);
    core.match(m);
    EXPECT_EQ(m.size(), 3);
    EXPECT_EQ(m.outputOf(1), kNoPort);
    for (PortId i = 0; i < 4; ++i)
        EXPECT_NE(m.outputOf(i), 2);
}

TEST(VoqCoreTest, BusyMasksHideRowsAndColumnsFromOneMatchOnly)
{
    VoqCore core = makeCore(4);
    for (PortId i = 0; i < 4; ++i)
        core.enqueue(cell(i, i, i));
    core.enqueue(cell(9, 0, 1));
    const int edges = core.requests().numEdges();

    uint64_t in_busy[1] = {0};
    uint64_t out_busy[1] = {0};
    wordset::setBit(in_busy, 2);
    wordset::setBit(out_busy, 1);
    Matching m(4, 4);
    core.match(m, in_busy, out_busy);
    EXPECT_EQ(m.outputOf(2), kNoPort);
    EXPECT_EQ(m.outputOf(0), 0);
    EXPECT_EQ(m.outputOf(1), kNoPort);  // its only request is masked
    EXPECT_EQ(m.outputOf(3), 3);

    // The live matrix is untouched by the mask.
    EXPECT_EQ(core.requests().numEdges(), edges);
    core.match(m);
    EXPECT_EQ(m.size(), 4);
}

}  // namespace
}  // namespace an2
