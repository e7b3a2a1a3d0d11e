/**
 * @file
 * Random-access input buffer for one switch input port (paper §3.3).
 *
 * The buffer is organized exactly as the paper describes the hardware:
 * each flow has its own FIFO queue of cells; per output, a round-robin
 * list of *eligible* flows (flows with at least one queued cell) is
 * maintained. The input requests output j during matching iff the
 * eligible list for j is non-empty; when the request is granted, the next
 * eligible flow is served round-robin.
 *
 * Viewed per output, this structure is a virtual output queue (VOQ);
 * the class name reflects that common framing.
 *
 * Layout: one shared cell memory per input, as in the hardware. Queued
 * cells live in a per-input arena of {cell, next} nodes; a FIFO is a
 * {head, tail} pair of 32-bit node handles, so a flow with nothing
 * queued costs two integers rather than a heap block. Freed nodes go to
 * a LIFO free list and are reused while still in cache; the arena grows
 * geometrically from a few nodes, only when every node is in use, so a
 * buffer is as large as its peak occupancy and steady-state churn never
 * allocates. Per-flow records live in a dense append-only vector; a
 * flat integer-keyed index maps flow ids to vector slots, and the
 * per-output eligible rings store slot indices directly.
 *
 * Single-flow fast path: most workloads route exactly one flow to each
 * (input, output) pair, so each per-output record carries the *sole*
 * flow bound to that output — its id, its slot and its FIFO handles
 * (sticky: it degrades to "many" the moment a second flow binds and
 * never recovers). While an output is single-flow, enqueue and dequeue
 * touch that one record and one arena node: no flow-index probe, no
 * per-flow record and no eligible ring, since round-robin among one
 * flow is the identity. The transition to many flows moves the handles
 * into the per-flow record and restores the eligible list to exactly
 * the state the general path would have maintained.
 */
#ifndef AN2_QUEUEING_VOQ_H
#define AN2_QUEUEING_VOQ_H

#include <cstdint>
#include <vector>

#include "an2/base/flat_map.h"
#include "an2/base/ring.h"
#include "an2/cell/cell.h"
#include "an2/cell/flow.h"

namespace an2 {

/** Input buffer with per-flow FIFOs and per-output eligible-flow lists. */
class InputBuffer
{
  public:
    /** @param n_outputs Number of switch outputs. */
    explicit InputBuffer(int n_outputs);

    /**
     * Buffer an arriving cell. The cell's `output` field routes it to the
     * appropriate eligible list.
     * @return the number of cells now queued for that output.
     */
    int enqueue(const Cell& cell);

    /**
     * Buffer a cell under an explicit queue key instead of its flow id.
     * Cells sharing a key share one FIFO queue and one round-robin seat;
     * used to model switches that merge all of an input's traffic into a
     * single FIFO per output (the Figure 9 "round-robin among input
     * ports" discipline) rather than AN2's per-flow queues. The key must
     * consistently map to one output, like a flow.
     * @return the number of cells now queued for the cell's output.
     */
    int enqueueAs(FlowId queue_key, const Cell& cell);

    /** True when some flow has a cell queued for output j. */
    bool hasCellFor(PortId j) const;

    /** Number of cells queued for output j (across all flows). */
    int cellCountFor(PortId j) const;

    /** Total buffered cells at this input. */
    int totalCells() const { return total_cells_; }

    /** Number of distinct eligible flows for output j. */
    int eligibleFlowsFor(PortId j) const;

    /**
     * Serve output j: pick the next eligible flow round-robin, dequeue its
     * head cell, and maintain the eligible list. Requires hasCellFor(j).
     */
    Cell dequeueFor(PortId j);

    /** True when a specific flow has at least one queued cell. */
    bool flowHasCell(FlowId f) const;

    /**
     * Dequeue the head cell of a specific flow (used by the CBR frame
     * schedule, which reserves slots per flow). Requires flowHasCell(f).
     */
    Cell dequeueFlow(FlowId f);

    /** Output the flow is bound to here, or kNoPort when it has no
        queued or bound state. */
    PortId flowOutput(FlowId f) const;

    /**
     * Repoint a flow at a new output (VBR rerouting). Queued cells are
     * retagged in FIFO order and the per-output counts and eligible
     * lists move with them; a no-op when the flow has no state here or
     * is already bound to `new_output`.
     * @return the number of queued cells moved.
     */
    int rebindFlow(FlowId f, PortId new_output);

    /**
     * Discard every queued cell of a flow (CBR path restoration: cells
     * buffered at a switch that left the flow's path can never be
     * scheduled again). Counts and eligible lists are maintained and the
     * cells' nodes return to the free list; the flow's slot survives for
     * later re-use.
     * @return the number of cells discarded.
     */
    int purgeFlow(FlowId f);

  private:
    /** Null node handle: end of a FIFO or of the free list. */
    static constexpr int32_t kNil = -1;

    /** One arena node: a queued cell and the handle of the next cell in
        its FIFO (or of the next free node). */
    struct Node
    {
        Cell cell;
        int32_t next = kNil;
    };

    /** A FIFO of arena nodes; empty iff head == kNil. */
    struct Fifo
    {
        int32_t head = kNil;
        int32_t tail = kNil;
        bool empty() const { return head == kNil; }
    };

    struct PerFlow
    {
        /** The flow's cells; empty while the flow is its output's sole
            flow, whose handles live in the PerOutput record. */
        Fifo fifo;
        bool eligible_listed = false;  ///< present in an eligible list
        PortId output = kNoPort;       ///< the flow's routed output
        FlowId flow = kNoFlow;         ///< the flow this slot belongs to
    };

    /**
     * Per-output bookkeeping, one cache-resident record combining the
     * queued-cell count with the single-flow fast path, so the hot paths
     * touch one record per output.
     */
    struct PerOutput
    {
        int32_t cells = 0;  ///< cells queued for this output (all flows)
        /** slots_ index + 1 of the only flow ever bound to this output;
            0 = none yet, -1 = two or more (sticky). */
        int32_t sole = 0;
        FlowId sole_flow = kNoFlow;  ///< that flow's id, while sole > 0
        Fifo fifo;                   ///< that flow's cells, while sole > 0
    };

    /** Index into slots_ for flow f, creating the slot on first touch. */
    int32_t flowSlot(FlowId f);

    /** The FIFO holding slot s's cells: the per-output record's while
        the flow is its output's sole flow, else its own. */
    Fifo& fifoOf(int32_t s);
    const Fifo& fifoOf(int32_t s) const;

    /** Append a cell to q, taking a node from the free list (or growing
        the arena when none is free). */
    void pushBack(Fifo& q, const Cell& cell);

    /** Remove q's head cell, returning its node to the free list. */
    Cell popFront(Fifo& q);

    /** Record one fewer cell for output j. */
    void noteDequeued(PortId j);

    /** Remove slot s from output j's eligible ring (stale seats too);
        the rotation keeps the other flows in order. */
    void unlist(PerFlow& st, int32_t s, PortId j);

    /**
     * Detach slot s from its output, returning the flow's FIFO (moved
     * out of the per-output record when it was the sole flow, which
     * leaves the output with no flow).
     */
    Fifo unbind(int32_t s);

    /**
     * Bind slot s, carrying `fifo`, to output j: the output's sole flow
     * when it has none, else (after reconcileSole) one more eligible
     * flow, listed iff it has cells.
     */
    void bind(int32_t s, PortId j, Fifo fifo);

    /**
     * Output j is gaining a second flow: move the sole flow's handles
     * into its per-flow record and re-establish the general-path
     * eligible-list invariant (listed iff non-empty) that the direct
     * single-flow paths elide, then mark the output multi-flow.
     */
    void reconcileSole(PerOutput& po, PortId j);

    int n_outputs_;
    int total_cells_ = 0;
    /**
     * FlowId -> slots_ index + 1 (0 = absent). A linear-probe flat map,
     * so the enqueue path's lookup is one multiply and a short probe;
     * the map is consulted only when a cell arrives for a flow that is
     * not its output's sole flow or a caller names a flow explicitly —
     * the dequeue path below never hashes at all.
     */
    FlatMap<int32_t> flow_index_;
    /** Per-flow state, append-only (flows are never removed, matching
        the paper's per-connection queue model). */
    std::vector<PerFlow> slots_;
    /**
     * Round-robin eligible list per output, holding slots_ *indices*
     * (not flow ids): serving an output is ring-pop + direct vector
     * access. A ring (not a deque) so steady-state rotation never
     * allocates. Empty while the output has at most one flow.
     */
    std::vector<RingQueue<int32_t>> eligible_;
    /** Count + single-flow state per output, maintained incrementally. */
    std::vector<PerOutput> per_output_;
    /** The shared cell memory: every queued cell of this input. */
    std::vector<Node> arena_;
    /** Head of the LIFO list of free arena nodes. */
    int32_t free_ = kNil;
};

}  // namespace an2

#endif  // AN2_QUEUEING_VOQ_H
