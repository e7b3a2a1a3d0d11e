#include "an2/sim/voq_core.h"

#include "an2/base/error.h"
#include "an2/obs/recorder.h"
#include "an2/sim/switch.h"

namespace an2 {

namespace {

int
checkedSize(int n)
{
    AN2_REQUIRE(n > 0, "switch size must be positive");
    return n;
}

}  // namespace

VoqCore::VoqCore(int n, std::unique_ptr<Matcher> matcher, const char* owner)
    : n_(checkedSize(n)), matcher_(std::move(matcher)), owner_(owner),
      req_(n), words_(wordset::numWords(n)),
      dead_in_(static_cast<size_t>(words_), 0),
      dead_out_(static_cast<size_t>(words_), 0)
{
    AN2_REQUIRE(matcher_ != nullptr, "a matcher is required");
    bufs_.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        bufs_.emplace_back(n);
}

void
VoqCore::rejectInput(PortId i) const
{
    AN2_FATAL("cell input " << i << " out of range");
}

void
VoqCore::dropAtLineCard()
{
    checker_.noteDropped();
    obs::count(obs::Counter::CellsDroppedByFaults);
}

void
VoqCore::rebindFlow(FlowId flow, PortId out_port)
{
    // The flow lives in at most one input buffer; elsewhere the rebind
    // is a hash-miss no-op and the request row is untouched.
    for (PortId i = 0; i < n_; ++i) {
        InputBuffer& buf = bufs_[static_cast<size_t>(i)];
        const PortId old = buf.flowOutput(flow);
        const int moved = buf.rebindFlow(flow, out_port);
        if (moved == 0)
            continue;
        req_.set(i, old, buf.hasCellFor(old));
        req_.set(i, out_port, true);
    }
}

void
VoqCore::match(Matching& out, const uint64_t* in_busy,
               const uint64_t* out_busy)
{
    const RequestMatrix* req = &req_;
    if (in_busy != nullptr) {
        // Copy-assign reuses the scratch's capacity (same dimensions
        // every call), then strip the busy ports.
        if (masked_req_)
            *masked_req_ = req_;
        else
            masked_req_.emplace(req_);
        RequestMatrix& masked = *masked_req_;
        wordset::forEachSet(in_busy, words_,
                            [&](int i) { masked.clearRow(i); });
        wordset::forEachSet(out_busy, words_,
                            [&](int j) { masked.clearColumn(j); });
        req = &masked;
    }
    matcher_->matchInto(*req, out);
    AN2_ASSERT(out.isLegalFor(*req), "matcher returned illegal match");
    checkAvoidsDead(out);
}

void
VoqCore::setInputLive(PortId i, bool live)
{
    AN2_REQUIRE(i >= 0 && i < n_, "input port " << i << " out of range");
    if (live)
        wordset::clearBit(dead_in_.data(), i);
    else
        wordset::setBit(dead_in_.data(), i);
    req_.setInputLive(i, live);
    noteLiveness();
}

void
VoqCore::setOutputLive(PortId j, bool live)
{
    AN2_REQUIRE(j >= 0 && j < n_, "output port " << j << " out of range");
    if (live)
        wordset::clearBit(dead_out_.data(), j);
    else
        wordset::setBit(dead_out_.data(), j);
    req_.setOutputLive(j, live);
    noteLiveness();
}

void
VoqCore::noteLiveness()
{
    any_dead_ = wordset::anySet(dead_in_.data(), words_) ||
                wordset::anySet(dead_out_.data(), words_);
}

int
VoqCore::bufferedCells() const
{
    int total = 0;
    for (const auto& b : bufs_)
        total += b.totalCells();
    return total;
}

void
VoqCore::fillOccupancy(int32_t* voq, int32_t* backlog) const
{
    for (PortId i = 0; i < n_; ++i) {
        for (PortId j = 0; j < n_; ++j) {
            int32_t cells = bufs_[static_cast<size_t>(i)].cellCountFor(j);
            voq[static_cast<size_t>(i) * static_cast<size_t>(n_) +
                static_cast<size_t>(j)] = cells;
            backlog[j] += cells;
        }
    }
}

void
takeSnapshot(const SwitchModel& sw, obs::Recorder& rec, SlotTime slot)
{
    AN2_REQUIRE(rec.ports() == sw.size(),
                "recorder snapshot ports do not match the switch size");
    sw.fillOccupancy(rec.voqMatrix(), rec.outputBacklog());
    rec.commitSnapshot(slot, sw.bufferedCells());
}

}  // namespace an2
