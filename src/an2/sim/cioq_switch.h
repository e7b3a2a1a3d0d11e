/**
 * @file
 * Combined input-output queued (CIOQ) switch: VOQ inputs, a pluggable
 * matcher run S times per slot (crossbar speedup S, Cogill & Lall), and
 * per-output, per-class queues drained at one cell per output per slot.
 *
 * Slot sequence:
 *  1. Up to `speedup` matching phases. Each phase computes a matching
 *     over the live request matrix, configures the crossbar, and moves
 *     the matched cells from the VOQs into the output queues — so an
 *     input can send (and an output receive) up to S cells per slot.
 *  2. Output service. Every live output transmits at most one cell,
 *     chosen among its three class queues (CBR > VBR > best-effort) by
 *     strict priority or deterministic weighted round-robin.
 *
 * With a maximal matcher and S = 2 the mean delay tracks the ideal
 * output-queued switch (the Cogill–Lall bound); S >= N would emulate
 * output queueing exactly. At S = 1 under strict service, every cell
 * that crosses departs in the same slot, so the switch leaves the same
 * set of cells each slot as an InputQueuedSwitch with the same matcher
 * seed and arrivals — for matchers that draw nothing on an empty
 * request matrix (PIM, iSLIP). Two differences remain: a phase whose
 * matrix has no edges is skipped without calling the matcher (the IQ
 * switch calls it every slot), and departures are emitted in output
 * order rather than input order.
 *
 * The VOQs, the persistent request matrix, the dead-port masks and the
 * matching step are the shared VoqCore; this adapter adds the S-phase
 * loop and the class queues. The output queues are preallocated rings
 * and every per-slot scratch buffer is reused: steady-state runSlot()
 * performs no heap allocation. Dead ports follow the IQ switch's
 * contract: arrivals at dead ports are dropped at the line card,
 * matchers never grant a dead port, and a dead output holds its queues
 * until revival.
 */
#ifndef AN2_SIM_CIOQ_SWITCH_H
#define AN2_SIM_CIOQ_SWITCH_H

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "an2/base/ring.h"
#include "an2/fabric/crossbar.h"
#include "an2/sim/switch.h"
#include "an2/sim/voq_core.h"

namespace an2 {

/** How a CIOQ output picks among its class queues each slot. */
enum class ServiceDiscipline : uint8_t {
    Strict,  ///< CBR before VBR before best-effort, always
    Wrr,     ///< weighted round-robin over non-empty classes
};

/** Configuration for a CioqSwitch. */
struct CioqSwitchConfig
{
    /** Switch size N. */
    int n = 16;

    /** Matching phases per slot (crossbar speedup), 1..4. */
    int speedup = 2;

    /** Output scheduling discipline across the class queues. */
    ServiceDiscipline service = ServiceDiscipline::Strict;

    /** WRR weights per TrafficClass (cells served before the pointer
        advances); ignored under strict priority. */
    std::array<int, kNumTrafficClasses> wrr_weights = {4, 2, 1};
};

/** CIOQ switch: VOQs + matcher at speedup S + per-class output queues. */
class CioqSwitch final : public SwitchModel
{
  public:
    CioqSwitch(const CioqSwitchConfig& config,
               std::unique_ptr<Matcher> matcher);

    void acceptCell(const Cell& cell) override;
    const std::vector<Cell>& runSlot(SlotTime slot) override;
    void runSlots(SlotTime first, SlotTime count,
                  SlotDriver& driver) override;
    int bufferedCells() const override;
    std::string name() const override;
    int size() const override { return config_.n; }

    void setInputPortLive(PortId i, bool live) override
    {
        core_.setInputLive(i, live);
    }

    void setOutputPortLive(PortId j, bool live) override
    {
        core_.setOutputLive(j, live);
    }

    bool inputPortLive(PortId i) const override { return core_.inputLive(i); }

    bool outputPortLive(PortId j) const override
    {
        return core_.outputLive(j);
    }

    int64_t droppedCells() const override
    {
        return core_.invariants().dropped();
    }

    /** The per-slot invariant ledger (conservation totals). */
    const fault::InvariantChecker& invariants() const
    {
        return core_.invariants();
    }

    /** The scheduler run each phase. */
    Matcher& matcher() { return core_.matcher(); }

    /** The persistent request matrix (patched incrementally). */
    const RequestMatrix& requests() const { return core_.requests(); }

    /** Matching phases executed so far (<= speedup per slot). */
    int64_t phasesRun() const { return phases_run_; }

    /** Largest single-output backlog (all classes) seen at any slot
        boundary. */
    int64_t outputQueueHighWaterMark() const { return out_hwm_; }

    /** Cells currently queued at output j in class `cls`. */
    int outputQueueDepth(PortId j, TrafficClass cls) const
    {
        return static_cast<int>(outQueue(j, cls).size());
    }

    /** VOQ occupancy plus output-queue backlog. */
    void fillOccupancy(int32_t* voq, int32_t* backlog) const override;

  private:
    RingQueue<Cell>& outQueue(PortId j, TrafficClass cls)
    {
        return out_q_[static_cast<size_t>(j) * kNumTrafficClasses +
                      static_cast<size_t>(cls)];
    }

    const RingQueue<Cell>& outQueue(PortId j, TrafficClass cls) const
    {
        return out_q_[static_cast<size_t>(j) * kNumTrafficClasses +
                      static_cast<size_t>(cls)];
    }

    /** Serve one cell from output j per its discipline; false if every
        class queue at j is empty. */
    bool serveOutput(PortId j);

    /** Queued cells at output j, all classes. */
    int outputBacklog(PortId j) const;

    CioqSwitchConfig config_;
    /** VOQs for every class; a request (i,j) spans all classes. */
    VoqCore core_;
    Crossbar crossbar_;

    /** Per-output, per-class FIFO rings, class-major within an output. */
    std::vector<RingQueue<Cell>> out_q_;

    // WRR state per output: the class the pointer rests on and the
    // credit it has left there.
    std::vector<uint8_t> wrr_cls_;
    std::vector<int32_t> wrr_credit_;

    // Per-slot scratch, reused so steady-state slots never allocate.
    Matching match_;               ///< one phase's matching
    std::vector<Cell> departed_;   ///< runSlot return buffer

    int64_t phases_run_ = 0;
    int64_t out_hwm_ = 0;
};

}  // namespace an2

#endif  // AN2_SIM_CIOQ_SWITCH_H
