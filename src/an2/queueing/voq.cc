#include "an2/queueing/voq.h"

#include <algorithm>
#include <limits>

#include "an2/base/error.h"

namespace an2 {

namespace {

/** Nodes in a fresh arena: small enough that a lightly loaded buffer
    stays small, large enough that warm-up settles its size quickly. */
constexpr size_t kArenaStart = 8;

}  // namespace

InputBuffer::InputBuffer(int n_outputs)
    : n_outputs_(n_outputs), flow_index_(n_outputs),
      eligible_(static_cast<size_t>(n_outputs)),
      per_output_(static_cast<size_t>(n_outputs))
{
    AN2_REQUIRE(n_outputs > 0, "input buffer needs at least one output");
}

int32_t
InputBuffer::flowSlot(FlowId f)
{
    int32_t& idx = flow_index_[f];
    if (idx == 0) {
        slots_.emplace_back();
        slots_.back().flow = f;
        idx = static_cast<int32_t>(slots_.size());
    }
    return idx - 1;
}

InputBuffer::Fifo&
InputBuffer::fifoOf(int32_t s)
{
    PerFlow& st = slots_[static_cast<size_t>(s)];
    if (st.output != kNoPort) {
        PerOutput& po = per_output_[static_cast<size_t>(st.output)];
        if (po.sole == s + 1)
            return po.fifo;
    }
    return st.fifo;
}

const InputBuffer::Fifo&
InputBuffer::fifoOf(int32_t s) const
{
    return const_cast<InputBuffer*>(this)->fifoOf(s);
}

void
InputBuffer::pushBack(Fifo& q, const Cell& cell)
{
    int32_t n = free_;
    if (n != kNil) {
        Node& node = arena_[static_cast<size_t>(n)];
        free_ = node.next;
        node.cell = cell;
        node.next = kNil;
    } else {
        // Every node is in use: grow geometrically from a small start.
        if (arena_.size() == arena_.capacity()) {
            AN2_REQUIRE(arena_.size() <
                            static_cast<size_t>(
                                std::numeric_limits<int32_t>::max() / 2),
                        "input buffer arena exceeds 32-bit handles");
            arena_.reserve(std::max(kArenaStart, 2 * arena_.capacity()));
        }
        n = static_cast<int32_t>(arena_.size());
        arena_.push_back(Node{cell, kNil});
    }
    if (q.tail == kNil)
        q.head = n;
    else
        arena_[static_cast<size_t>(q.tail)].next = n;
    q.tail = n;
}

Cell
InputBuffer::popFront(Fifo& q)
{
    AN2_ASSERT(!q.empty(), "pop from an empty flow FIFO");
    const int32_t n = q.head;
    Node& node = arena_[static_cast<size_t>(n)];
    q.head = node.next;
    if (q.head == kNil)
        q.tail = kNil;
    node.next = free_;
    free_ = n;
    return node.cell;
}

void
InputBuffer::reconcileSole(PerOutput& po, PortId j)
{
    AN2_ASSERT(po.sole > 0, "reconcile on an output that is not single-flow");
    const int32_t s = po.sole - 1;
    PerFlow& prev = slots_[static_cast<size_t>(s)];
    auto& list = eligible_[static_cast<size_t>(j)];
    // The direct paths never list the sole flow, and a single-flow
    // output's ring holds nothing else.
    AN2_ASSERT(!prev.eligible_listed && prev.fifo.empty() && list.empty(),
               "single-flow state out of sync for output " << j);
    prev.fifo = po.fifo;
    po.fifo = Fifo{};
    if (!prev.fifo.empty()) {
        list.push_back(s);
        prev.eligible_listed = true;
    }
    po.sole = -1;
    po.sole_flow = kNoFlow;
}

void
InputBuffer::bind(int32_t s, PortId j, Fifo fifo)
{
    PerFlow& st = slots_[static_cast<size_t>(s)];
    PerOutput& po = per_output_[static_cast<size_t>(j)];
    st.output = j;
    if (po.sole == 0) {
        po.sole = s + 1;
        po.sole_flow = st.flow;
        po.fifo = fifo;
        return;
    }
    if (po.sole > 0)
        reconcileSole(po, j);  // second flow for this output
    st.fifo = fifo;
    if (!fifo.empty()) {
        eligible_[static_cast<size_t>(j)].push_back(s);
        st.eligible_listed = true;
    }
}

void
InputBuffer::unlist(PerFlow& st, int32_t s, PortId j)
{
    RingQueue<int32_t>& list = eligible_[static_cast<size_t>(j)];
    for (size_t i = 0, sz = list.size(); i < sz; ++i) {
        int32_t x = list.front();
        list.pop_front();
        if (x != s)
            list.push_back(x);
    }
    st.eligible_listed = false;
}

InputBuffer::Fifo
InputBuffer::unbind(int32_t s)
{
    PerFlow& st = slots_[static_cast<size_t>(s)];
    PerOutput& po = per_output_[static_cast<size_t>(st.output)];
    if (st.eligible_listed)
        unlist(st, s, st.output);
    Fifo fifo = st.fifo;
    if (po.sole == s + 1) {
        fifo = po.fifo;  // the output loses its only flow
        po.sole = 0;
        po.sole_flow = kNoFlow;
        po.fifo = Fifo{};
    }
    st.fifo = Fifo{};
    st.output = kNoPort;  // next enqueue binds fresh
    return fifo;
}

int
InputBuffer::enqueue(const Cell& cell)
{
    return enqueueAs(cell.flow, cell);
}

int
InputBuffer::enqueueAs(FlowId queue_key, const Cell& cell)
{
    AN2_REQUIRE(cell.output >= 0 && cell.output < n_outputs_,
                "cell routed to invalid output " << cell.output);
    AN2_REQUIRE(queue_key != kNoFlow, "cell has no queue key");
    PerOutput& po = per_output_[static_cast<size_t>(cell.output)];
    if (po.sole > 0 && po.sole_flow == queue_key) {
        // Direct: the output's only flow, whose FIFO lives right here.
        pushBack(po.fifo, cell);
        ++total_cells_;
        return ++po.cells;
    }
    const int32_t slot = flowSlot(queue_key);
    PerFlow& st = slots_[static_cast<size_t>(slot)];
    // All cells of a flow take the same path (paper §2): the routing
    // table maps each flow to exactly one output.
    if (st.output == kNoPort)
        bind(slot, cell.output, Fifo{});
    AN2_REQUIRE(st.output == cell.output,
                "queue " << queue_key << " routed to output " << st.output
                         << " but cell claims output " << cell.output);
    ++po.cells;
    ++total_cells_;
    if (po.sole == slot + 1) {
        pushBack(po.fifo, cell);  // just bound as the sole flow
        return po.cells;
    }
    pushBack(st.fifo, cell);
    if (!st.eligible_listed) {
        eligible_[static_cast<size_t>(cell.output)].push_back(slot);
        st.eligible_listed = true;
    }
    return po.cells;
}

bool
InputBuffer::hasCellFor(PortId j) const
{
    return cellCountFor(j) > 0;
}

int
InputBuffer::cellCountFor(PortId j) const
{
    AN2_REQUIRE(j >= 0 && j < n_outputs_, "output " << j << " out of range");
    return per_output_[static_cast<size_t>(j)].cells;
}

int
InputBuffer::eligibleFlowsFor(PortId j) const
{
    AN2_REQUIRE(j >= 0 && j < n_outputs_, "output " << j << " out of range");
    const PerOutput& po = per_output_[static_cast<size_t>(j)];
    if (po.sole > 0)
        return po.fifo.empty() ? 0 : 1;
    const auto& list = eligible_[static_cast<size_t>(j)];
    int n = 0;
    for (size_t k = 0; k < list.size(); ++k)
        if (!slots_[static_cast<size_t>(list.at(k))].fifo.empty())
            ++n;
    return n;
}

void
InputBuffer::noteDequeued(PortId j)
{
    --total_cells_;
    --per_output_[static_cast<size_t>(j)].cells;
}

Cell
InputBuffer::dequeueFor(PortId j)
{
    AN2_REQUIRE(hasCellFor(j), "no cell queued for output " << j);
    PerOutput& po = per_output_[static_cast<size_t>(j)];
    if (po.sole > 0) {
        // Direct: the output's only flow owns every queued cell, and a
        // round-robin among one flow is the identity — skip the ring.
        --po.cells;
        --total_cells_;
        return popFront(po.fifo);
    }
    auto& list = eligible_[static_cast<size_t>(j)];
    while (true) {
        AN2_ASSERT(!list.empty(),
                   "eligible list empty despite queued cells for " << j);
        int32_t s = list.front();
        list.pop_front();
        PerFlow& st = slots_[static_cast<size_t>(s)];
        if (st.fifo.empty()) {
            // Stale entry left behind by dequeueFlow(); lazily discard.
            st.eligible_listed = false;
            continue;
        }
        Cell c = popFront(st.fifo);
        noteDequeued(j);
        if (!st.fifo.empty()) {
            list.push_back(s);  // round-robin: rotate to the back
        } else {
            st.eligible_listed = false;
        }
        return c;
    }
}

bool
InputBuffer::flowHasCell(FlowId f) const
{
    const int32_t* idx = flow_index_.get(f);
    return idx != nullptr && !fifoOf(*idx - 1).empty();
}

PortId
InputBuffer::flowOutput(FlowId f) const
{
    const int32_t* idx = flow_index_.get(f);
    return idx == nullptr ? kNoPort
                          : slots_[static_cast<size_t>(*idx - 1)].output;
}

int
InputBuffer::rebindFlow(FlowId f, PortId new_output)
{
    AN2_REQUIRE(new_output >= 0 && new_output < n_outputs_,
                "rebind to invalid output " << new_output);
    const int32_t* idx = flow_index_.get(f);
    if (idx == nullptr)
        return 0;
    const int32_t slot = *idx - 1;
    const PortId old = slots_[static_cast<size_t>(slot)].output;
    if (old == kNoPort || old == new_output)
        return 0;
    const Fifo fifo = unbind(slot);
    // Retag queued cells in place, walking the links in FIFO order.
    int n = 0;
    for (int32_t k = fifo.head; k != kNil;
         k = arena_[static_cast<size_t>(k)].next) {
        arena_[static_cast<size_t>(k)].cell.output = new_output;
        ++n;
    }
    if (n == 0)
        return 0;  // left unbound: the next enqueue binds fresh
    per_output_[static_cast<size_t>(old)].cells -= n;
    per_output_[static_cast<size_t>(new_output)].cells += n;
    bind(slot, new_output, fifo);
    return n;
}

int
InputBuffer::purgeFlow(FlowId f)
{
    const int32_t* idx = flow_index_.get(f);
    if (idx == nullptr)
        return 0;
    const int32_t slot = *idx - 1;
    const PortId out = slots_[static_cast<size_t>(slot)].output;
    if (out == kNoPort)
        return 0;  // never bound (or already purged): nothing queued
    const Fifo fifo = unbind(slot);
    int n = 0;
    for (int32_t k = fifo.head; k != kNil;
         k = arena_[static_cast<size_t>(k)].next)
        ++n;
    if (n > 0) {
        // Splice the whole FIFO onto the free list.
        arena_[static_cast<size_t>(fifo.tail)].next = free_;
        free_ = fifo.head;
        per_output_[static_cast<size_t>(out)].cells -= n;
        total_cells_ -= n;
    }
    return n;
}

Cell
InputBuffer::dequeueFlow(FlowId f)
{
    AN2_REQUIRE(flowHasCell(f), "flow " << f << " has no queued cell");
    Cell c = popFront(fifoOf(*flow_index_.get(f) - 1));
    noteDequeued(c.output);
    // If the flow is now empty, its eligible-list entry (if any) becomes
    // stale and is discarded lazily by dequeueFor().
    return c;
}

}  // namespace an2
