#include "an2/matching/request_matrix.h"

#include <algorithm>

namespace an2 {

RequestMatrix::RequestMatrix(int n_inputs, int n_outputs)
    : n_inputs_(n_inputs), n_outputs_(n_outputs),
      row_words_(wordset::numWords(n_outputs)),
      col_words_(wordset::numWords(n_inputs)),
      row_masks_(static_cast<size_t>(n_inputs) *
                     static_cast<size_t>(row_words_),
                 0),
      col_masks_(static_cast<size_t>(n_outputs) *
                     static_cast<size_t>(col_words_),
                 0),
      raw_(row_masks_.size(), 0),
      live_in_(static_cast<size_t>(col_words_), 0),
      live_out_(static_cast<size_t>(row_words_), 0),
      dirty_rows_(static_cast<size_t>(col_words_), 0),
      dirty_cols_(static_cast<size_t>(row_words_), 0)
{
    AN2_REQUIRE(n_inputs > 0 && n_outputs > 0,
                "request matrix must have positive dimensions");
    wordset::fillFirst(live_in_.data(), col_words_, n_inputs);
    wordset::fillFirst(live_out_.data(), row_words_, n_outputs);
}

RequestMatrix::RequestMatrix(const RequestMatrix& other)
    : n_inputs_(other.n_inputs_), n_outputs_(other.n_outputs_),
      row_words_(other.row_words_),
      col_words_(other.col_words_),
      row_masks_(other.row_masks_),
      col_masks_(other.col_masks_),
      raw_(other.raw_),
      live_in_(other.live_in_),
      live_out_(other.live_out_),
      dead_ports_(other.dead_ports_),
      edges_(other.edges_),
      dirty_rows_(other.dirty_rows_),
      dirty_cols_(other.dirty_cols_),
      epoch_(other.epoch_)
{
    // Conservative: the new object's content was wholesale-assigned.
    wordset::fillFirst(dirty_rows_.data(), col_words_, numInputs());
    wordset::fillFirst(dirty_cols_.data(), row_words_, numOutputs());
    ++epoch_;
}

RequestMatrix&
RequestMatrix::operator=(const RequestMatrix& other)
{
    if (this == &other)
        return *this;
    const uint64_t own_epoch = epoch_;
    n_inputs_ = other.n_inputs_;
    n_outputs_ = other.n_outputs_;
    row_words_ = other.row_words_;
    col_words_ = other.col_words_;
    row_masks_ = other.row_masks_;
    col_masks_ = other.col_masks_;
    raw_ = other.raw_;
    live_in_ = other.live_in_;
    live_out_ = other.live_out_;
    dead_ports_ = other.dead_ports_;
    edges_ = other.edges_;
    dirty_rows_ = other.dirty_rows_;
    dirty_cols_ = other.dirty_cols_;
    // Conservative: any visible edge may have changed, and the epoch must
    // advance past every value a consumer of *this* may have snapshotted
    // (a recycled scratch matrix is overwritten every slot).
    wordset::fillFirst(dirty_rows_.data(), col_words_, numInputs());
    wordset::fillFirst(dirty_cols_.data(), row_words_, numOutputs());
    epoch_ = std::max(own_epoch, other.epoch_) + 1;
    return *this;
}

void
RequestMatrix::set(PortId i, PortId j, bool requested)
{
    AN2_ASSERT(i >= 0 && i < numInputs() && j >= 0 && j < numOutputs(),
               "request (" << i << "," << j << ") out of range");
    uint64_t* raw = rawRow(i);
    if (wordset::testBit(raw, j) == requested)
        return;
    if (requested)
        wordset::setBit(raw, j);
    else
        wordset::clearBit(raw, j);
    // Requests touching a dead port stay hidden: the masks and the edge
    // count track only the visible view.
    if (dead_ports_ > 0 && (!inputLive(i) || !outputLive(j)))
        return;
    if (requested) {
        wordset::setBit(rowMaskMut(i), j);
        wordset::setBit(colMaskMut(j), i);
        ++edges_;
    } else {
        wordset::clearBit(rowMaskMut(i), j);
        wordset::clearBit(colMaskMut(j), i);
        --edges_;
    }
    markDirty(i, j);
}

void
RequestMatrix::setInputLive(PortId i, bool live)
{
    AN2_REQUIRE(i >= 0 && i < numInputs(),
                "input port " << i << " out of range");
    if (inputLive(i) == live)
        return;
    uint64_t* row = rowMaskMut(i);
    if (!live) {
        // Hide row i: drop its visible edges from the column masks. Each
        // hidden edge is an edge-set transition, so the dirty sets record
        // it — a warm-started matcher must not reuse a pairing whose
        // input just died.
        wordset::forEachSet(row, row_words_, [&](int j) {
            wordset::clearBit(colMaskMut(j), i);
            --edges_;
            markDirty(i, j);
        });
        wordset::clearAll(row, row_words_);
        wordset::clearBit(live_in_.data(), i);
        ++dead_ports_;
    } else {
        wordset::setBit(live_in_.data(), i);
        --dead_ports_;
        // Re-expose the surviving requests toward live outputs; each
        // re-exposed edge is a transition the dirty sets must record
        // (hidden-then-revived requests reappear without any set() call).
        const uint64_t* raw = rawRow(i);
        for (int w = 0; w < row_words_; ++w)
            row[w] = raw[w] & live_out_[static_cast<size_t>(w)];
        wordset::forEachSet(row, row_words_, [&](int j) {
            wordset::setBit(colMaskMut(j), i);
            ++edges_;
            markDirty(i, j);
        });
    }
}

void
RequestMatrix::setOutputLive(PortId j, bool live)
{
    AN2_REQUIRE(j >= 0 && j < numOutputs(),
                "output port " << j << " out of range");
    if (outputLive(j) == live)
        return;
    uint64_t* col = colMaskMut(j);
    if (!live) {
        wordset::forEachSet(col, col_words_, [&](int i) {
            wordset::clearBit(rowMaskMut(i), j);
            --edges_;
            markDirty(i, j);
        });
        wordset::clearAll(col, col_words_);
        wordset::clearBit(live_out_.data(), j);
        ++dead_ports_;
    } else {
        wordset::setBit(live_out_.data(), j);
        --dead_ports_;
        wordset::forEachSet(live_in_.data(), col_words_, [&](int i) {
            if (wordset::testBit(rawRow(i), j)) {
                wordset::setBit(rowMaskMut(i), j);
                wordset::setBit(col, i);
                ++edges_;
                markDirty(i, j);
            }
        });
    }
}

void
RequestMatrix::clear()
{
    std::fill(raw_.begin(), raw_.end(), 0);
    std::fill(row_masks_.begin(), row_masks_.end(), 0);
    std::fill(col_masks_.begin(), col_masks_.end(), 0);
    edges_ = 0;
    // Conservatively mark everything dirty: a wholesale wipe changes (or
    // may change) every row and column.
    wordset::fillFirst(dirty_rows_.data(), col_words_, numInputs());
    wordset::fillFirst(dirty_cols_.data(), row_words_, numOutputs());
    ++epoch_;
}

void
RequestMatrix::clearRow(PortId i)
{
    uint64_t* row = rowMaskMut(i);
    wordset::forEachSet(row, row_words_, [&](int j) {
        wordset::clearBit(colMaskMut(j), i);
        --edges_;
        markDirty(i, j);
    });
    wordset::clearAll(row, row_words_);
    wordset::clearAll(rawRow(i), row_words_);  // hidden requests too
}

void
RequestMatrix::clearColumn(PortId j)
{
    uint64_t* col = colMaskMut(j);
    wordset::forEachSet(col, col_words_, [&](int i) {
        wordset::clearBit(rawRow(i), j);
        wordset::clearBit(rowMaskMut(i), j);
        --edges_;
        markDirty(i, j);
    });
    wordset::clearAll(col, col_words_);
    if (dead_ports_ > 0) {
        // Also drop requests hidden behind dead ports (the mask walk
        // above cannot see them); only paid when faults are active.
        for (PortId i = 0; i < numInputs(); ++i)
            wordset::clearBit(rawRow(i), j);
    }
}

RequestMatrix
RequestMatrix::bernoulli(int n, double p, Rng& rng)
{
    RequestMatrix req(n);
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
            if (rng.nextBernoulli(p))
                req.set(i, j, true);
    return req;
}

}  // namespace an2
