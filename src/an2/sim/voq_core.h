/**
 * @file
 * The VOQ switch core (paper §3.3): per-input random-access buffers, the
 * persistent request matrix they feed, the dead-port masks, and one
 * masked matching step. InputQueuedSwitch, CioqSwitch and NetSwitch are
 * thin adapters over it; each keeps only what sets it apart (the CBR
 * frame schedule and pipelining; the S matching phases and class
 * service; routes, link I/O and Appendix B statistics) and its own rule
 * for when to call the matcher.
 *
 * The request matrix is never rebuilt. The buffers hold the one count of
 * cells per (input, output) pair; the matrix holds only whether that
 * count is non-zero — the hardware's one request wire per port pair. An
 * enqueue that makes the count 1 raises the request, a dequeue that
 * makes it 0 lowers it, and a rebound flow moves its requests with its
 * cells, so the matrix always mirrors the buffers. Dead ports are
 * mirrored into the matrix's liveness, so no matcher can grant one;
 * arrivals touching a dead port are lost at the line card.
 *
 * The class is concrete and non-virtual: its hot paths inline into the
 * adapter's slot loop, and steady-state use performs no heap allocation.
 */
#ifndef AN2_SIM_VOQ_CORE_H
#define AN2_SIM_VOQ_CORE_H

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "an2/fault/invariants.h"
#include "an2/matching/matcher.h"
#include "an2/matching/wordset.h"
#include "an2/queueing/voq.h"

namespace an2 {

namespace obs {
class Recorder;
}  // namespace obs

class SwitchModel;

/** VOQ input buffers + persistent request matrix + matcher. */
class VoqCore
{
  public:
    /**
     * @param n Port count.
     * @param matcher The scheduling algorithm (owned).
     * @param owner Switch name used in invariant-violation messages.
     */
    VoqCore(int n, std::unique_ptr<Matcher> matcher, const char* owner);

    int size() const { return n_; }

    Matcher& matcher() { return *matcher_; }
    const Matcher& matcher() const { return *matcher_; }

    /** has(i,j) iff input i has a cell queued for output j and both
        ports are live; input(i).cellCountFor(j) is the count. */
    const RequestMatrix& requests() const { return req_; }

    const InputBuffer& input(PortId i) const
    {
        return bufs_[static_cast<size_t>(i)];
    }

    // ---- cells in and out ---------------------------------------------

    /**
     * Line-card admission, ledgered in invariants(): false (the cell is
     * dropped) when it touches a dead port. The caller buffers an
     * admitted cell — here via enqueue(), or in a buffer of its own.
     */
    bool admit(const Cell& cell)
    {
        // The failure path is out of line so that admit() stays small
        // enough to inline into every adapter's per-cell accept.
        if (cell.input < 0 || cell.input >= n_)
            rejectInput(cell.input);
        if (pairDead(cell.input, cell.output)) {
            dropAtLineCard();
            return false;
        }
        checker_.noteAccepted();
        return true;
    }

    /** Buffer a cell at its input and raise its request. */
    void enqueue(const Cell& cell)
    {
        if (bufs_[static_cast<size_t>(cell.input)].enqueue(cell) == 1)
            req_.set(cell.input, cell.output, true);
    }

    /** enqueue() under an explicit queue key (InputBuffer::enqueueAs). */
    void enqueueAs(FlowId queue_key, const Cell& cell)
    {
        if (bufs_[static_cast<size_t>(cell.input)].enqueueAs(queue_key,
                                                             cell) == 1)
            req_.set(cell.input, cell.output, true);
    }

    /** Serve pairing (i,j): the next cell round-robin among i's flows
        for j, lowering the request when it was the last one. */
    Cell dequeue(PortId i, PortId j)
    {
        InputBuffer& buf = bufs_[static_cast<size_t>(i)];
        Cell c = buf.dequeueFor(j);
        if (!buf.hasCellFor(j))
            req_.set(i, j, false);
        return c;
    }

    /** Repoint a flow's queued cells and their requests at `out_port`
        (InputBuffer::rebindFlow at every input). */
    void rebindFlow(FlowId flow, PortId out_port);

    // ---- matching ------------------------------------------------------

    /**
     * Compute a matching of the requests into `out`. With busy masks
     * (bit i of `in_busy` / bit j of `out_busy`, maskWords() words each)
     * the matcher sees a copy with those rows and columns cleared; null
     * masks hand it the live matrix. The result is checked legal and
     * clear of dead ports.
     */
    void match(Matching& out, const uint64_t* in_busy = nullptr,
               const uint64_t* out_busy = nullptr);

    // ---- dead ports ----------------------------------------------------

    void setInputLive(PortId i, bool live);
    void setOutputLive(PortId j, bool live);

    bool inputLive(PortId i) const
    {
        return !wordset::testBit(dead_in_.data(), i);
    }

    bool outputLive(PortId j) const
    {
        return !wordset::testBit(dead_out_.data(), j);
    }

    /** True when pairing (i,j) touches a dead port (one branch while
        every port is live). */
    bool pairDead(PortId i, PortId j) const
    {
        return any_dead_ && (!inputLive(i) || !outputLive(j));
    }

    /** True when output j is dead (one branch while all are live). */
    bool outputDead(PortId j) const { return any_dead_ && !outputLive(j); }

    /** Fatal if `m` pairs a dead port (one branch while all are live). */
    void checkAvoidsDead(const Matching& m) const
    {
        if (any_dead_)
            fault::InvariantChecker::checkMatchingAvoidsDead(
                m, dead_in_.data(), dead_out_.data(), owner_);
    }

    /** Words in the port bitmasks match() takes. */
    int maskWords() const { return words_; }

    // ---- ledger and diagnostics -----------------------------------------

    /** Conservation ledger: admitted, dropped and departed cells. */
    const fault::InvariantChecker& invariants() const { return checker_; }

    /** Close a slot: `departed` cells left the switch, `buffered` remain
        anywhere in it; checks accepted == departed + buffered. */
    void checkSlot(int64_t departed, int buffered)
    {
        checker_.noteDeparted(departed);
        checker_.checkConservation(buffered, owner_);
    }

    /** Cells queued in the VOQs. */
    int bufferedCells() const;

    /** Write VOQ counts into `voq` (row-major by input) and add them to
        `backlog`, which the caller has initialized. */
    void fillOccupancy(int32_t* voq, int32_t* backlog) const;

  private:
    [[noreturn]] void rejectInput(PortId i) const;
    void dropAtLineCard();
    void noteLiveness();

    int n_;
    std::unique_ptr<Matcher> matcher_;
    const char* owner_;
    std::vector<InputBuffer> bufs_;
    RequestMatrix req_;
    /** match() scratch for masked calls: built on the first one (an
        adapter that never masks never pays for it), then reused. */
    std::optional<RequestMatrix> masked_req_;
    int words_;
    std::vector<uint64_t> dead_in_;
    std::vector<uint64_t> dead_out_;
    bool any_dead_ = false;
    fault::InvariantChecker checker_;
};

/** Fill the recorder's VOQ/backlog scratch from `sw` and commit one
    snapshot line for `slot`. */
void takeSnapshot(const SwitchModel& sw, obs::Recorder& rec, SlotTime slot);

}  // namespace an2

#endif  // AN2_SIM_VOQ_CORE_H
