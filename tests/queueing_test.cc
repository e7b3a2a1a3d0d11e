// Tests for the queueing substrates: the random-access input buffer with
// eligible-flow lists, and the FIFO ring behind every per-flow and
// output queue.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <map>
#include <vector>

#include "an2/base/ring.h"
#include "an2/base/rng.h"
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

TEST(InputBufferTest, OccupancyTracksQueuedOutputs)
{
    InputBuffer buf(70);  // outputs beyond the first 64
    for (PortId j = 0; j < 70; ++j)
        EXPECT_FALSE(buf.hasCellFor(j));

    buf.enqueue(makeCell(1, 0, 3, 0));
    buf.enqueue(makeCell(1, 0, 3, 1));
    buf.enqueue(makeCell(2, 0, 68, 2));
    EXPECT_TRUE(buf.hasCellFor(3));
    EXPECT_TRUE(buf.hasCellFor(68));
    EXPECT_EQ(buf.cellCountFor(3), 2);
    EXPECT_EQ(buf.cellCountFor(68), 1);
    int occupied = 0;
    for (PortId j = 0; j < 70; ++j)
        occupied += buf.hasCellFor(j) ? 1 : 0;
    EXPECT_EQ(occupied, 2);

    // Occupied while any cell remains, clear on the last dequeue.
    buf.dequeueFor(3);
    EXPECT_TRUE(buf.hasCellFor(3));
    EXPECT_EQ(buf.cellCountFor(3), 1);
    buf.dequeueFor(3);
    EXPECT_FALSE(buf.hasCellFor(3));
    buf.dequeueFor(68);
    for (PortId j = 0; j < 70; ++j)
        EXPECT_FALSE(buf.hasCellFor(j));
    EXPECT_EQ(buf.totalCells(), 0);
}

TEST(InputBufferTest, OccupancyTracksDequeueFlow)
{
    InputBuffer buf(70);
    buf.enqueue(makeCell(5, 0, 2, 0));
    buf.enqueue(makeCell(6, 0, 66, 0));
    EXPECT_TRUE(buf.hasCellFor(2));
    EXPECT_TRUE(buf.hasCellFor(66));
    buf.dequeueFlow(5);
    EXPECT_FALSE(buf.hasCellFor(2));
    buf.dequeueFlow(6);
    EXPECT_FALSE(buf.hasCellFor(66));
    EXPECT_EQ(buf.cellCountFor(66), 0);
}

// --------------------------------- InputBuffer vs a plain reference model

/**
 * The input buffer's behaviour spelled out with standard containers: one
 * deque of cells per flow and one round-robin deque of flow ids per
 * output, maintained exactly as the general path of §3.3 does (stale
 * seats left by dequeueFlow included). The one extra rule is the
 * single-flow fast path's: when an output that has held one flow binds
 * a second, stale seats are dropped, so the ring lists exactly the
 * flows with cells.
 */
class ReferenceBuffer
{
  public:
    explicit ReferenceBuffer(int n_outputs)
        : outputs_(static_cast<size_t>(n_outputs))
    {
    }

    void enqueue(FlowId key, const Cell& cell)
    {
        Flow& fl = flows_[key];
        if (fl.output == kNoPort)
            bind(key, cell.output);
        ASSERT_EQ(fl.output, cell.output);
        fl.cells.push_back(cell);
        ++out(cell.output).cells;
        ++total_;
        if (!fl.listed) {
            out(cell.output).rr.push_back(key);
            fl.listed = true;
        }
    }

    Cell dequeueFor(PortId j)
    {
        Output& o = out(j);
        while (true) {
            FlowId key = o.rr.front();
            o.rr.pop_front();
            Flow& fl = flows_[key];
            if (fl.cells.empty()) {
                fl.listed = false;  // stale seat
                continue;
            }
            Cell c = fl.cells.front();
            fl.cells.pop_front();
            --o.cells;
            --total_;
            if (fl.cells.empty())
                fl.listed = false;
            else
                o.rr.push_back(key);
            return c;
        }
    }

    Cell dequeueFlow(FlowId key)
    {
        Flow& fl = flows_[key];
        Cell c = fl.cells.front();
        fl.cells.pop_front();
        --out(c.output).cells;
        --total_;
        return c;
    }

    int rebind(FlowId key, PortId new_output)
    {
        auto it = flows_.find(key);
        if (it == flows_.end() || it->second.output == kNoPort ||
            it->second.output == new_output)
            return 0;
        Flow& fl = it->second;
        const PortId old = fl.output;
        unbind(key);
        const auto n = static_cast<int>(fl.cells.size());
        if (n == 0)
            return 0;
        for (Cell& c : fl.cells)
            c.output = new_output;
        out(old).cells -= n;
        out(new_output).cells += n;
        bind(key, new_output);
        out(new_output).rr.push_back(key);
        fl.listed = true;
        return n;
    }

    int purge(FlowId key)
    {
        auto it = flows_.find(key);
        if (it == flows_.end() || it->second.output == kNoPort)
            return 0;
        Flow& fl = it->second;
        const PortId o = fl.output;
        unbind(key);
        const auto n = static_cast<int>(fl.cells.size());
        fl.cells.clear();
        out(o).cells -= n;
        total_ -= n;
        return n;
    }

    int cellCountFor(PortId j) const { return outputs_[j].cells; }
    int totalCells() const { return total_; }

    int eligibleFlowsFor(PortId j) const
    {
        int n = 0;
        for (FlowId key : outputs_[j].rr)
            n += flows_.at(key).cells.empty() ? 0 : 1;
        return n;
    }

    bool flowHasCell(FlowId key) const
    {
        auto it = flows_.find(key);
        return it != flows_.end() && !it->second.cells.empty();
    }

    PortId flowOutput(FlowId key) const
    {
        auto it = flows_.find(key);
        return it == flows_.end() ? kNoPort : it->second.output;
    }

    /** Flows bound to j: 0, 1, or 2 for "two or more ever" (sticky). */
    int bindingState(PortId j) const
    {
        const Output& o = outputs_[j];
        return o.many ? 2 : (o.sole == kNoFlow ? 0 : 1);
    }

    /** True when `key` is the sole flow of its output. */
    bool isSole(FlowId key) const
    {
        PortId j = flowOutput(key);
        return j != kNoPort && outputs_[j].sole == key;
    }

  private:
    struct Flow
    {
        std::deque<Cell> cells;
        PortId output = kNoPort;
        bool listed = false;
    };
    struct Output
    {
        std::deque<FlowId> rr;
        int cells = 0;
        FlowId sole = kNoFlow;
        bool many = false;
    };

    Output& out(PortId j) { return outputs_[static_cast<size_t>(j)]; }

    void bind(FlowId key, PortId j)
    {
        flows_[key].output = j;
        Output& o = out(j);
        if (o.many)
            return;
        if (o.sole == kNoFlow) {
            o.sole = key;
            return;
        }
        // Second flow: the ring keeps exactly the flows with cells.
        std::deque<FlowId> live;
        for (FlowId k : o.rr) {
            if (flows_[k].cells.empty())
                flows_[k].listed = false;
            else
                live.push_back(k);
        }
        o.rr = live;
        o.sole = kNoFlow;
        o.many = true;
    }

    void unbind(FlowId key)
    {
        Flow& fl = flows_[key];
        Output& o = out(fl.output);
        if (fl.listed) {
            o.rr.erase(std::find(o.rr.begin(), o.rr.end(), key));
            fl.listed = false;
        }
        if (o.sole == key)
            o.sole = kNoFlow;
        fl.output = kNoPort;
    }

    std::map<FlowId, Flow> flows_;
    std::vector<Output> outputs_;
    int total_ = 0;
};

void
expectSameCell(const Cell& got, const Cell& want)
{
    EXPECT_EQ(got.flow, want.flow);
    EXPECT_EQ(got.input, want.input);
    EXPECT_EQ(got.output, want.output);
    EXPECT_EQ(got.seq, want.seq);
    EXPECT_EQ(got.arrival_slot, want.arrival_slot);
}

TEST(InputBufferTest, MatchesReferenceModelUnderRandomOperations)
{
    // Seeded mixed operations over short episodes, each on a fresh
    // buffer: outputs start with 1-3 flows (two start with none), so
    // single-flow outputs keep turning multi-flow, and occupancy stays
    // bounded, so freed arena nodes are reused throughout.
    constexpr int kOutputs = 8;
    constexpr int kEpisodes = 50;
    constexpr int kOpsPerEpisode = 2'000;
    Xoshiro256 rng(2026);
    // Rebinds of a sole flow, by the target's state before the call:
    // no flow, a single flow, two or more.
    std::array<int, 3> sole_rebinds{};
    int emptied = 0;  // flows drained by dequeueFlow
    int64_t ops = 0;
    int64_t seq = 0;
    for (int episode = 0; episode < kEpisodes; ++episode) {
        InputBuffer buf(kOutputs);
        ReferenceBuffer ref(kOutputs);
        std::vector<FlowId> keys;
        std::map<FlowId, PortId> route;
        for (PortId j = 0; j < kOutputs - 2; ++j) {
            const int flows = 1 + static_cast<int>(rng.nextBelow(3));
            for (int k = 0; k < flows; ++k) {
                // Sparse keys, so the flow index probes and collides.
                const FlowId key =
                    static_cast<FlowId>(keys.size()) * 37 + episode;
                keys.push_back(key);
                route[key] = j;
            }
        }
        auto pickKey = [&] {
            return keys[rng.nextBelow(keys.size())];
        };
        for (int step = 0; step < kOpsPerEpisode; ++step, ++ops) {
            const uint64_t op = rng.nextBelow(100);
            const int total = ref.totalCells();
            if (op < 45 && total < 48) {
                const FlowId key = pickKey();
                const PortId bound = ref.flowOutput(key);
                Cell c = makeCell(key + 100'000, 0,
                                  bound != kNoPort ? bound : route[key],
                                  seq++);
                c.arrival_slot = ops;
                buf.enqueueAs(key, c);
                ref.enqueue(key, c);
            } else if (op < 80 && total > 0) {
                PortId j = static_cast<PortId>(rng.nextBelow(kOutputs));
                while (ref.cellCountFor(j) == 0)
                    j = (j + 1) % kOutputs;
                // Stale seats at the front are skipped by both.
                expectSameCell(buf.dequeueFor(j), ref.dequeueFor(j));
            } else if (op < 88 && total > 0) {
                FlowId key = pickKey();
                if (!ref.flowHasCell(key))
                    continue;
                expectSameCell(buf.dequeueFlow(key), ref.dequeueFlow(key));
                if (!ref.flowHasCell(key))
                    ++emptied;  // its seat, if any, is now stale
            } else if (op < 96) {
                const FlowId key = pickKey();
                const auto target =
                    static_cast<PortId>(rng.nextBelow(kOutputs));
                if (ref.isSole(key) && ref.flowHasCell(key) &&
                    ref.flowOutput(key) != target)
                    ++sole_rebinds[static_cast<size_t>(
                        ref.bindingState(target))];
                route[key] = target;
                EXPECT_EQ(buf.rebindFlow(key, target),
                          ref.rebind(key, target));
            } else {
                const FlowId key = pickKey();
                EXPECT_EQ(buf.purgeFlow(key), ref.purge(key));
            }
            ASSERT_EQ(buf.totalCells(), ref.totalCells()) << "op " << ops;
            for (PortId j = 0; j < kOutputs; ++j) {
                ASSERT_EQ(buf.cellCountFor(j), ref.cellCountFor(j))
                    << "output " << j << " op " << ops;
                ASSERT_EQ(buf.eligibleFlowsFor(j), ref.eligibleFlowsFor(j))
                    << "output " << j << " op " << ops;
            }
            for (FlowId key : keys) {
                ASSERT_EQ(buf.flowHasCell(key), ref.flowHasCell(key))
                    << "flow " << key << " op " << ops;
                ASSERT_EQ(buf.flowOutput(key), ref.flowOutput(key))
                    << "flow " << key << " op " << ops;
            }
        }
        // Drain both: the remaining order must agree to the last cell.
        for (PortId j = 0; j < kOutputs; ++j)
            while (ref.cellCountFor(j) > 0)
                expectSameCell(buf.dequeueFor(j), ref.dequeueFor(j));
        EXPECT_EQ(buf.totalCells(), 0);
    }
    EXPECT_GE(ops, 100'000);
    EXPECT_GT(emptied, 0);
    EXPECT_GT(sole_rebinds[0], 0) << "sole flow onto an empty output";
    EXPECT_GT(sole_rebinds[1], 0) << "sole flow onto a single-flow output";
    EXPECT_GT(sole_rebinds[2], 0) << "sole flow onto a multi-flow output";
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
