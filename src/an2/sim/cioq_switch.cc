#include "an2/sim/cioq_switch.h"

#include <algorithm>
#include <sstream>

#include "an2/base/error.h"
#include "an2/obs/recorder.h"

namespace an2 {

CioqSwitch::CioqSwitch(const CioqSwitchConfig& config,
                       std::unique_ptr<Matcher> matcher)
    : config_(config), core_(config.n, std::move(matcher), "CioqSwitch"),
      crossbar_(config.n),
      out_q_(static_cast<size_t>(config.n) * kNumTrafficClasses),
      wrr_cls_(static_cast<size_t>(config.n), 0),
      wrr_credit_(static_cast<size_t>(config.n), 0),
      match_(config.n, config.n)
{
    AN2_REQUIRE(config_.speedup >= 1 && config_.speedup <= 4,
                "CIOQ speedup must be in 1..4, got " << config_.speedup);
    for (int w : config_.wrr_weights)
        AN2_REQUIRE(w > 0, "WRR weights must be positive");
    for (PortId j = 0; j < config_.n; ++j)
        wrr_credit_[static_cast<size_t>(j)] = config_.wrr_weights[0];
    departed_.reserve(static_cast<size_t>(config_.n));
}

std::string
CioqSwitch::name() const
{
    std::ostringstream oss;
    oss << "CIOQ[" << core_.matcher().name() << ",S=" << config_.speedup << ","
        << (config_.service == ServiceDiscipline::Strict ? "strict"
                                                         : "wrr")
        << "]";
    return oss.str();
}

void
CioqSwitch::acceptCell(const Cell& cell)
{
    if (!core_.admit(cell))
        return;
    core_.enqueue(cell);
    obs::cellEnqueued(cell);
}

bool
CioqSwitch::serveOutput(PortId j)
{
    if (config_.service == ServiceDiscipline::Strict) {
        for (int cls = 0; cls < kNumTrafficClasses; ++cls) {
            RingQueue<Cell>& q =
                outQueue(j, static_cast<TrafficClass>(cls));
            if (q.empty())
                continue;
            departed_.push_back(q.front());
            q.pop_front();
            return true;
        }
        return false;
    }
    // Deterministic WRR: the pointer rests on a class with some credit;
    // serving costs one credit, and an exhausted or empty class passes
    // the pointer on with a fresh grant of that class's weight. At most
    // kNumTrafficClasses + 1 probes reach a cell whenever one exists, so
    // the discipline stays work-conserving.
    auto sj = static_cast<size_t>(j);
    for (int probes = 0; probes <= kNumTrafficClasses; ++probes) {
        int cls = wrr_cls_[sj];
        RingQueue<Cell>& q = outQueue(j, static_cast<TrafficClass>(cls));
        if (wrr_credit_[sj] > 0 && !q.empty()) {
            --wrr_credit_[sj];
            departed_.push_back(q.front());
            q.pop_front();
            return true;
        }
        int next = (cls + 1) % kNumTrafficClasses;
        wrr_cls_[sj] = static_cast<uint8_t>(next);
        wrr_credit_[sj] = config_.wrr_weights[static_cast<size_t>(next)];
    }
    return false;
}

const std::vector<Cell>&
CioqSwitch::runSlot(SlotTime slot)
{
    const int n = config_.n;
    obs::slotBegin(slot);

    // Phase 1..S: match, configure the crossbar, and cross the matched
    // cells into the output queues. Each phase sees the request matrix
    // left by the previous one, so a hot (i,j) pair can cross up to S
    // cells per slot.
    int crossed = 0;
    int cbr_crossed = 0;
    for (int phase = 0; phase < config_.speedup; ++phase) {
        if (core_.requests().numEdges() == 0)
            break;
        obs::count(obs::Counter::SpeedupPhases);
        ++phases_run_;
        core_.match(match_);
        if (match_.size() == 0)
            break;
        crossbar_.configure(match_);
        for (PortId i = 0; i < n; ++i) {
            PortId j = match_.outputOf(i);
            if (j == kNoPort)
                continue;
            Cell c = core_.dequeue(i, j);
            obs::cellDequeued(c);
            crossbar_.forward(c);
            outQueue(j, c.cls).push_back(c);
            ++crossed;
            if (c.cls == TrafficClass::CBR)
                ++cbr_crossed;
        }
    }

    // Output service: one departure per live output per slot; a dead
    // output holds its queues until revival.
    departed_.clear();
    for (PortId j = 0; j < n; ++j)
        if (!core_.outputDead(j))
            serveOutput(j);

    // Backlog high-water mark across all outputs (post-departure).
    for (PortId j = 0; j < n; ++j)
        out_hwm_ = std::max<int64_t>(out_hwm_, outputBacklog(j));

    core_.checkSlot(static_cast<int64_t>(departed_.size()), bufferedCells());

    if (obs::Recorder* rec = obs::current()) {
        rec->set(obs::Gauge::OutputQueueHwm, out_hwm_);
        rec->endSlot(crossed, cbr_crossed, crossed);
        if (rec->snapshotDue(slot))
            takeSnapshot(*this, *rec, slot);
    }
    return departed_;
}

void
CioqSwitch::runSlots(SlotTime first, SlotTime count, SlotDriver& driver)
{
    runSlotBatch(*this, first, count, driver);
}

int
CioqSwitch::outputBacklog(PortId j) const
{
    int queued = 0;
    for (int cls = 0; cls < kNumTrafficClasses; ++cls)
        queued += static_cast<int>(
            outQueue(j, static_cast<TrafficClass>(cls)).size());
    return queued;
}

void
CioqSwitch::fillOccupancy(int32_t* voq, int32_t* backlog) const
{
    for (PortId j = 0; j < config_.n; ++j)
        backlog[j] = outputBacklog(j);
    core_.fillOccupancy(voq, backlog);
}

int
CioqSwitch::bufferedCells() const
{
    int total = core_.bufferedCells();
    for (const auto& q : out_q_)
        total += static_cast<int>(q.size());
    return total;
}

}  // namespace an2
