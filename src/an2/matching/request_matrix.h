/**
 * @file
 * The scheduling problem input: which input-output pairs have queued cells.
 *
 * Switch scheduling is bipartite matching (paper §3.4): inputs and outputs
 * are the two node sets, and an edge (i,j) exists when input i has at least
 * one cell queued for output j. The RequestMatrix is that edge set and
 * nothing more: schedulers only ask whether an edge is present, and the
 * number of queued cells per pair lives with the cells (InputBuffer), so a
 * switch raises or lowers an edge only when that number crosses zero.
 *
 * The matrix maintains, incrementally on every mutation, the bit-parallel
 * view the fast matcher backends consume: a row mask per input (bit j set
 * when input i requests output j), a column mask per output (bit i set
 * when input i requests output j), and the edge count. This mirrors the
 * AN2 hardware, where the request state is literally one wire per port
 * pair (§3.3), and lets a switch patch the matrix as cells arrive and
 * depart instead of rebuilding O(N^2) state every slot.
 *
 * Port liveness (fault injection): setInputLive/setOutputLive mark ports
 * dead, which *hides* their requests — has() returns false, the row and
 * column masks exclude them, and numEdges() counts only visible edges —
 * without discarding them: a raw request bitset keeps every edge, visible
 * or not. Both matcher backend styles consume only has()/rowMask()/
 * colMask(), so a dead port can never be granted by any matcher. Reviving
 * a port re-exposes its surviving requests (raw & live, word by word).
 * Liveness survives clear() and copy assignment.
 *
 * Delta tracking (temporal locality): every mutation that changes the
 * *visible* edge set — set() flipping an edge, clearRow/clearColumn,
 * clear(), and liveness flips hiding or re-exposing edges — marks the
 * affected input in a dirty-row set, the affected output in a dirty-col
 * set, and bumps an epoch counter. A warm-starting matcher can thus ask
 * "which rows/columns changed since my last matching?" in O(words) and
 * detect a completely unchanged matrix in O(1) via epoch(). Setting an
 * edge to the state it already has marks nothing. The dirty sets are
 * acknowledgment state for a single consumer: clearDirty() is const (the
 * members are mutable) so the matcher can acknowledge deltas on a const
 * matrix.
 */
#ifndef AN2_MATCHING_REQUEST_MATRIX_H
#define AN2_MATCHING_REQUEST_MATRIX_H

#include <cstdint>
#include <vector>

#include "an2/base/error.h"
#include "an2/base/rng.h"
#include "an2/base/types.h"
#include "an2/matching/wordset.h"

namespace an2 {

/** Occupancy of the virtual output queues: requests for the next slot. */
class RequestMatrix
{
  public:
    /** Empty n_inputs x n_outputs request matrix. */
    RequestMatrix(int n_inputs, int n_outputs);

    /** Square n x n request matrix. */
    explicit RequestMatrix(int n) : RequestMatrix(n, n) {}

    /**
     * Copying conservatively marks every row and column dirty and bumps
     * the destination's epoch past both operands: an overwrite may change
     * any visible edge without an individually recorded transition, so a
     * warm-started matcher must never wholesale-reuse a matching across a
     * copy (the per-edge seeding path remains valid). Moves are exact.
     */
    RequestMatrix(const RequestMatrix& other);
    RequestMatrix& operator=(const RequestMatrix& other);
    RequestMatrix(RequestMatrix&&) = default;
    RequestMatrix& operator=(RequestMatrix&&) = default;

    int numInputs() const { return n_inputs_; }
    int numOutputs() const { return n_outputs_; }

    /** True when input i requests output j and both ports are live. One
        bit test against the incrementally maintained row mask (the masks
        hold exactly the visible edges). */
    bool has(PortId i, PortId j) const
    {
        AN2_ASSERT(i >= 0 && i < numInputs() && j >= 0 && j < numOutputs(),
                   "request (" << i << "," << j << ") out of range");
        return wordset::testBit(rowMask(i), j);
    }

    /** Raise (or lower) the request of input i for output j. While
        either port is dead the request is recorded but stays hidden. */
    void set(PortId i, PortId j, bool requested);

    /** Number of (i,j) pairs with at least one visible request (O(1));
        requests hidden by dead ports are excluded. */
    int numEdges() const { return edges_; }

    /**
     * Mark input i live or dead. Killing a port hides its requests from
     * has()/masks/numEdges() in O(row edges); reviving re-exposes the
     * surviving requests in O(row words + row edges). Idempotent.
     */
    void setInputLive(PortId i, bool live);

    /** Mark output j live or dead (see setInputLive). */
    void setOutputLive(PortId j, bool live);

    bool inputLive(PortId i) const
    {
        return wordset::testBit(live_in_.data(), i);
    }

    bool outputLive(PortId j) const
    {
        return wordset::testBit(live_out_.data(), j);
    }

    /** True when no port has been marked dead. */
    bool allPortsLive() const { return dead_ports_ == 0; }

    /** Clear all requests. */
    void clear();

    /** Drop every request from input i, hidden ones included. */
    void clearRow(PortId i);

    /** Drop every request to output j, hidden ones included. */
    void clearColumn(PortId j);

    /** Words per row mask (over outputs). */
    int rowWords() const { return row_words_; }

    /** Words per column mask (over inputs). */
    int colWords() const { return col_words_; }

    /** Row mask of input i: bit j set iff has(i, j). */
    const uint64_t* rowMask(PortId i) const
    {
        return row_masks_.data() +
               static_cast<size_t>(i) * static_cast<size_t>(row_words_);
    }

    /** Column mask of output j: bit i set iff has(i, j). */
    const uint64_t* colMask(PortId j) const
    {
        return col_masks_.data() +
               static_cast<size_t>(j) * static_cast<size_t>(col_words_);
    }

    // ---- delta tracking (see the file comment) ------------------------

    /** Inputs whose visible row changed since clearDirty() (bit i set);
        colWords() words. */
    const uint64_t* dirtyRows() const { return dirty_rows_.data(); }

    /** Outputs whose visible column changed since clearDirty() (bit j
        set); rowWords() words. */
    const uint64_t* dirtyCols() const { return dirty_cols_.data(); }

    bool rowDirty(PortId i) const
    {
        return wordset::testBit(dirty_rows_.data(), i);
    }

    bool colDirty(PortId j) const
    {
        return wordset::testBit(dirty_cols_.data(), j);
    }

    /** True when any visible edge changed since clearDirty(). */
    bool anyDirty() const
    {
        return wordset::anySet(dirty_rows_.data(), col_words_) ||
               wordset::anySet(dirty_cols_.data(), row_words_);
    }

    /**
     * Monotonic change counter: bumped on every visible-edge transition.
     * Never reset (clearDirty() leaves it alone), so a consumer holding a
     * stale snapshot can detect "anything changed?" in O(1) even if some
     * other consumer acknowledged the dirty sets in between.
     */
    uint64_t epoch() const { return epoch_; }

    /** Acknowledge all deltas (single-consumer contract; const because
        the matcher holds the matrix by const reference). */
    void clearDirty() const
    {
        wordset::clearAll(dirty_rows_.data(), col_words_);
        wordset::clearAll(dirty_cols_.data(), row_words_);
    }

    /**
     * Generate a random pattern: each pair independently has one request
     * with probability p (the Table 1 workload).
     */
    static RequestMatrix bernoulli(int n, double p, Rng& rng);

  private:
    /** Record a visible-edge transition on (i, j). */
    void markDirty(PortId i, PortId j)
    {
        wordset::setBit(dirty_rows_.data(), i);
        wordset::setBit(dirty_cols_.data(), j);
        ++epoch_;
    }

    uint64_t* rowMaskMut(PortId i)
    {
        return row_masks_.data() +
               static_cast<size_t>(i) * static_cast<size_t>(row_words_);
    }

    uint64_t* colMaskMut(PortId j)
    {
        return col_masks_.data() +
               static_cast<size_t>(j) * static_cast<size_t>(col_words_);
    }

    /** Input i's raw requests: every requested output, live or not. */
    uint64_t* rawRow(PortId i)
    {
        return raw_.data() +
               static_cast<size_t>(i) * static_cast<size_t>(row_words_);
    }

    int n_inputs_;
    int n_outputs_;
    int row_words_;
    int col_words_;
    std::vector<uint64_t> row_masks_;  ///< numInputs x row_words_
    std::vector<uint64_t> col_masks_;  ///< numOutputs x col_words_
    std::vector<uint64_t> raw_;        ///< numInputs x row_words_
    std::vector<uint64_t> live_in_;    ///< bit i set = input i live
    std::vector<uint64_t> live_out_;   ///< bit j set = output j live
    int dead_ports_ = 0;               ///< dead inputs + dead outputs
    int edges_ = 0;

    // Delta tracking; mutable so a const consumer can acknowledge.
    mutable std::vector<uint64_t> dirty_rows_;  ///< inputs, col_words_
    mutable std::vector<uint64_t> dirty_cols_;  ///< outputs, row_words_
    uint64_t epoch_ = 0;
};

}  // namespace an2

#endif  // AN2_MATCHING_REQUEST_MATRIX_H
