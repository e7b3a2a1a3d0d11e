#include "an2/sim/iq_switch.h"

#include <sstream>

#include "an2/base/error.h"
#include "an2/matching/wordset.h"
#include "an2/obs/recorder.h"

namespace an2 {

InputQueuedSwitch::InputQueuedSwitch(const IqSwitchConfig& config,
                                     std::unique_ptr<Matcher> matcher,
                                     const FrameSchedule* cbr_schedule)
    : config_(config),
      core_(config.n, std::move(matcher), "InputQueuedSwitch"),
      cbr_schedule_(cbr_schedule), crossbar_(config.n),
      in_busy_(static_cast<size_t>(core_.maskWords()), 0),
      out_busy_(static_cast<size_t>(core_.maskWords()), 0),
      next_in_(static_cast<size_t>(core_.maskWords()), 0),
      next_out_(static_cast<size_t>(core_.maskWords()), 0),
      vbr_match_(config.n, config.n),
      combined_(config.n, config.n, config.output_speedup),
      pending_vbr_(config.n, config.n)
{
    AN2_REQUIRE(config_.output_speedup >= 1, "speedup must be >= 1");
    AN2_REQUIRE(config_.output_speedup == 1 || cbr_schedule_ == nullptr,
                "output speedup cannot be combined with a CBR schedule");
    if (cbr_schedule_ != nullptr) {
        AN2_REQUIRE(cbr_schedule_->size() == config_.n,
                    "frame schedule size does not match switch");
        // Without a schedule acceptCell() rejects CBR cells, so the CBR
        // bank would stay empty: build it only when it can be used.
        cbr_bufs_.reserve(static_cast<size_t>(config_.n));
        for (int i = 0; i < config_.n; ++i)
            cbr_bufs_.emplace_back(config_.n);
    }
    if (config_.output_speedup > 1)
        out_queues_.resize(static_cast<size_t>(config_.n));
    forwarded_.reserve(static_cast<size_t>(config_.n) *
                       static_cast<size_t>(config_.output_speedup));
}

std::string
InputQueuedSwitch::name() const
{
    std::ostringstream oss;
    oss << "IQ[" << core_.matcher().name();
    if (config_.output_speedup > 1)
        oss << ",speedup=" << config_.output_speedup;
    if (cbr_schedule_ != nullptr)
        oss << ",CBR";
    if (config_.pipelined)
        oss << ",pipelined";
    oss << "]";
    return oss.str();
}

void
InputQueuedSwitch::acceptCell(const Cell& cell)
{
    if (!core_.admit(cell)) {
        if (cell.cls == TrafficClass::CBR)
            ++cbr_cells_lost_;
        return;
    }
    if (cell.cls == TrafficClass::CBR) {
        AN2_REQUIRE(cbr_schedule_ != nullptr,
                    "CBR cell arrived at a switch with no frame schedule");
        cbr_bufs_[static_cast<size_t>(cell.input)].enqueue(cell);
    } else {
        core_.enqueue(cell);
    }
    obs::cellEnqueued(cell);
}

int
InputQueuedSwitch::serveCbr(SlotTime slot)
{
    int fs = static_cast<int>(slot % cbr_schedule_->frameSlots());
    int served = 0;
    for (PortId i = 0; i < config_.n; ++i) {
        PortId j = cbr_schedule_->outputAt(fs, i);
        if (j == kNoPort)
            continue;
        // A reservation whose schedule has not yet been repaired may
        // still pair a dead port; it cannot be served.
        if (core_.pairDead(i, j))
            continue;
        auto& buf = cbr_bufs_[static_cast<size_t>(i)];
        if (!buf.hasCellFor(j))
            continue;  // idle reservation: the slot falls to VBR
        forwarded_.push_back(buf.dequeueFor(j));
        obs::cellDequeued(forwarded_.back());
        obs::count(obs::Counter::CbrCellsForwarded);
        wordset::setBit(in_busy_.data(), i);
        wordset::setBit(out_busy_.data(), j);
        ++cbr_forwarded_;
        ++served;
    }
    return served;
}

bool
InputQueuedSwitch::predictCbrBusy(SlotTime slot)
{
    // Ports the frame schedule will claim in `slot`, predicted from the
    // CBR cells queued right now (CBR buffers only drain at their own
    // scheduled slots, so a cell present now is still present then; a
    // cell arriving later makes the prediction optimistic, and the
    // transmit path re-checks with CBR priority).
    int fs = static_cast<int>(slot % cbr_schedule_->frameSlots());
    bool any = false;
    for (PortId i = 0; i < config_.n; ++i) {
        PortId j = cbr_schedule_->outputAt(fs, i);
        if (j == kNoPort || !cbr_bufs_[static_cast<size_t>(i)].hasCellFor(j))
            continue;
        if (core_.pairDead(i, j))
            continue;  // dead pairing cannot claim ports next slot
        wordset::setBit(next_in_.data(), i);
        wordset::setBit(next_out_.data(), j);
        any = true;
    }
    return any;
}

void
InputQueuedSwitch::computeVbrMatch(const uint64_t* in_busy,
                                   const uint64_t* out_busy, bool any_busy,
                                   Matching& out)
{
    if (!any_busy) {
        core_.match(out);
        return;
    }
    if (obs::Recorder* rec = obs::current())
        rec->cbrMasked(wordset::popcountAll(in_busy, core_.maskWords()),
                       wordset::popcountAll(out_busy, core_.maskWords()));
    core_.match(out, in_busy, out_busy);
}

void
InputQueuedSwitch::forwardVbr(SlotTime slot, PortId i, PortId j)
{
    AN2_ASSERT(core_.input(i).hasCellFor(j),
               "pipelined matching references a vanished cell");
    Cell c = core_.dequeue(i, j);
    obs::cellDequeued(c);
    ++vbr_forwarded_;
    if (cbr_schedule_ != nullptr) {
        int fs = static_cast<int>(slot % cbr_schedule_->frameSlots());
        if (cbr_schedule_->outputAt(fs, i) == j)
            ++vbr_in_cbr_slots_;
    }
    forwarded_.push_back(c);
}

const std::vector<Cell>&
InputQueuedSwitch::runSlot(SlotTime slot)
{
    const int n = config_.n;
    forwarded_.clear();
    obs::slotBegin(slot);

    // Phase 1: CBR service from the frame schedule.
    bool cbr_busy = false;
    if (cbr_schedule_ != nullptr) {
        wordset::clearAll(in_busy_.data(), core_.maskWords());
        wordset::clearAll(out_busy_.data(), core_.maskWords());
        cbr_busy = serveCbr(slot) > 0;
    }
    const size_t n_cbr = forwarded_.size();

    // Phase 2: the VBR matching for this slot — computed now, or (in
    // pipelined mode) taken from the previous slot's computation — is
    // merged with the CBR pairings into the crossbar setting.
    combined_.reset(n, n, config_.output_speedup);
    for (size_t k = 0; k < n_cbr; ++k)
        combined_.add(forwarded_[k].input, forwarded_[k].output);
    if (!config_.pipelined) {
        computeVbrMatch(in_busy_.data(), out_busy_.data(), cbr_busy,
                        vbr_match_);
        for (PortId i = 0; i < n; ++i) {
            PortId j = vbr_match_.outputOf(i);
            if (j == kNoPort)
                continue;
            combined_.add(i, j);
            forwardVbr(slot, i, j);
        }
    } else if (has_pending_) {
        for (PortId i = 0; i < n; ++i) {
            PortId j = pending_vbr_.outputOf(i);
            if (j == kNoPort)
                continue;
            // A CBR cell that arrived after the matching was computed
            // reclaims its scheduled ports: CBR has priority.
            if (cbr_busy && (wordset::testBit(in_busy_.data(), i) ||
                             wordset::testBit(out_busy_.data(), j)))
                continue;
            // A port killed after the matching was computed (mask flip
            // mid-pipeline) invalidates its pairings.
            if (core_.pairDead(i, j))
                continue;
            combined_.add(i, j);
            forwardVbr(slot, i, j);
        }
    }

    // Phase 3: forward across the crossbar (CBR cells first, then VBR,
    // exactly the order they were appended to forwarded_).
    crossbar_.configure(combined_);
    for (const Cell& c : forwarded_)
        crossbar_.forward(c);

    // Pipelined mode: while this slot's cells cross the fabric, the
    // scheduler computes the matching the *next* slot will use.
    if (config_.pipelined) {
        bool any_next = false;
        if (cbr_schedule_ != nullptr) {
            wordset::clearAll(next_in_.data(), core_.maskWords());
            wordset::clearAll(next_out_.data(), core_.maskWords());
            any_next = predictCbrBusy(slot + 1);
        }
        computeVbrMatch(next_in_.data(), next_out_.data(), any_next,
                        pending_vbr_);
        has_pending_ = true;
    }

    // Departures: direct with a plain crossbar; via output queues with a
    // replicated fabric (one cell leaves each output link per slot).
    const std::vector<Cell>* result = &forwarded_;
    if (config_.output_speedup > 1) {
        for (const Cell& c : forwarded_)
            out_queues_[static_cast<size_t>(c.output)].push_back(c);
        departed_.clear();
        for (auto& q : out_queues_) {
            if (q.empty())
                continue;
            departed_.push_back(q.front());
            q.pop_front();
        }
        result = &departed_;
    }

    // Always-on invariants: the crossbar setting never touches a dead
    // port, and the conservation ledger balances every slot.
    core_.checkAvoidsDead(combined_);
    core_.checkSlot(static_cast<int64_t>(result->size()), bufferedCells());

    // Slot-boundary probes; the periodic snapshot samples the post-slot
    // queue state.
    if (obs::Recorder* rec = obs::current()) {
        rec->endSlot(static_cast<int>(forwarded_.size()),
                     static_cast<int>(n_cbr),
                     combined_.size() - static_cast<int>(n_cbr));
        if (rec->snapshotDue(slot))
            takeSnapshot(*this, *rec, slot);
    }
    return *result;
}

void
InputQueuedSwitch::runSlots(SlotTime first, SlotTime count,
                            SlotDriver& driver)
{
    runSlotBatch(*this, first, count, driver);
}

void
InputQueuedSwitch::fillOccupancy(int32_t* voq, int32_t* backlog) const
{
    const int n = config_.n;
    for (PortId j = 0; j < n; ++j)
        backlog[j] = out_queues_.empty()
                         ? 0
                         : static_cast<int32_t>(
                               out_queues_[static_cast<size_t>(j)].size());
    core_.fillOccupancy(voq, backlog);
    if (cbr_schedule_ == nullptr)
        return;  // no CBR bank
    for (PortId i = 0; i < n; ++i) {
        for (PortId j = 0; j < n; ++j) {
            int32_t cells = cbr_bufs_[static_cast<size_t>(i)].cellCountFor(j);
            voq[static_cast<size_t>(i) * static_cast<size_t>(n) +
                static_cast<size_t>(j)] += cells;
            backlog[j] += cells;
        }
    }
}

int
InputQueuedSwitch::bufferedCells() const
{
    int total = core_.bufferedCells();
    // The CBR bank exists only with a frame schedule.
    for (const auto& b : cbr_bufs_)
        total += b.totalCells();
    for (const auto& q : out_queues_)
        total += static_cast<int>(q.size());
    return total;
}

}  // namespace an2
