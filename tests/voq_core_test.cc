// Tests for the VOQ switch core (an2/sim/voq_core.h): the request edge
// set mirrors the buffers' counts through enqueue, dequeue, flow
// rebinding and port death; dead ports drop arrivals at the line card and
// stay unmatched; the masked matching step hides busy ports without
// touching the live matrix.
#include "an2/sim/voq_core.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "an2/base/error.h"
#include "an2/base/rng.h"
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

/** A request is visible iff its input buffer holds a cell for the
    output and both ports are live; numEdges() counts exactly those. */
void
expectRequestsMirrorBuffers(const VoqCore& core)
{
    int edges = 0;
    for (PortId i = 0; i < core.size(); ++i) {
        for (PortId j = 0; j < core.size(); ++j) {
            const bool want = core.input(i).cellCountFor(j) > 0 &&
                              core.inputLive(i) && core.outputLive(j);
            EXPECT_EQ(core.requests().has(i, j), want)
                << "(" << i << "," << j << ")";
            edges += want ? 1 : 0;
        }
    }
    EXPECT_EQ(core.requests().numEdges(), edges);
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
    EXPECT_TRUE(core.requests().has(1, 2));
    EXPECT_EQ(core.input(1).cellCountFor(2), 2);
    EXPECT_EQ(core.requests().numEdges(), 2);
    EXPECT_EQ(core.bufferedCells(), 3);

    Cell c = core.dequeue(1, 2);
    EXPECT_EQ(c.seq, 0);
    EXPECT_TRUE(core.requests().has(1, 2));  // one cell left
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
    EXPECT_EQ(core.input(1).cellCountFor(2), 1);
    EXPECT_EQ(core.input(1).cellCountFor(3), 3);
    EXPECT_TRUE(core.requests().has(1, 3));
    expectRequestsMirrorBuffers(core);

    // The last flow leaving an output lowers its request.
    core.rebindFlow(6, 0);
    EXPECT_FALSE(core.requests().has(1, 2));
    EXPECT_TRUE(core.requests().has(0, 2));
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

TEST(VoqCoreTest, RebindIntoDeadOutputKeepsRequestHidden)
{
    VoqCore core = makeCore(4);
    core.enqueue(cell(5, 1, 2));
    core.setOutputLive(3, false);
    core.rebindFlow(5, 3);
    EXPECT_EQ(core.input(1).cellCountFor(3), 1);
    EXPECT_FALSE(core.requests().has(1, 3));
    EXPECT_FALSE(core.requests().has(1, 2));
    core.setOutputLive(3, true);
    EXPECT_TRUE(core.requests().has(1, 3));
    expectRequestsMirrorBuffers(core);
}

TEST(VoqCoreTest, RequestsMirrorBuffersUnderChurn)
{
    // Seeded random enqueue (per flow and under a shared queue key),
    // dequeue, flow rebinding and input/output kill/revive; the edge set
    // must mirror the buffers after every operation. 70 ports spans two
    // mask words.
    for (int n : {5, 70}) {
        VoqCore core = makeCore(n);
        Xoshiro256 rng(static_cast<uint64_t>(n));
        auto pick = [&](int bound) {
            return static_cast<int>(
                rng.nextBelow(static_cast<uint64_t>(bound)));
        };
        // Flow f enters at input f % n; route[f] is its current output.
        std::vector<PortId> route;
        for (int f = 0; f < 3 * n; ++f)
            route.push_back(pick(n));
        const FlowId key_base = 3 * n;  // shared keys: one per pair
        for (int op = 0; op < 3000 && !HasFailure(); ++op) {
            const int kind = pick(100);
            const PortId i = pick(n);
            const PortId j = pick(n);
            const int f = pick(3 * n);
            if (kind < 40) {
                core.enqueue(cell(f, f % n, route[static_cast<size_t>(f)]));
            } else if (kind < 50) {
                core.enqueueAs(key_base + i * n + j, cell(kNoFlow, i, j));
            } else if (kind < 88) {
                for (int k = 0; k < n; ++k) {  // first queued output >= j
                    if (core.input(i).hasCellFor((j + k) % n)) {
                        core.dequeue(i, (j + k) % n);
                        break;
                    }
                }
            } else if (kind < 94) {
                core.rebindFlow(f, j);
                route[static_cast<size_t>(f)] = j;
            } else if (kind < 97) {
                core.setInputLive(i, !core.inputLive(i));
            } else {
                core.setOutputLive(j, !core.outputLive(j));
            }
            expectRequestsMirrorBuffers(core);
            if (HasFailure())
                ADD_FAILURE() << n << " ports: mirror broken at op " << op;
        }
    }
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
