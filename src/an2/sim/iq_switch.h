/**
 * @file
 * The AN2 input-queued switch model (paper §3-§4): random-access input
 * buffers, a pluggable scheduling algorithm for datagram (VBR) traffic,
 * and an optional pre-computed frame schedule for reserved (CBR) traffic.
 *
 * Slot sequence (matching the hardware's pipeline):
 *  1. CBR service — the frame schedule's pairings for this slot forward a
 *     queued CBR cell, if one is present, claiming their ports.
 *  2. VBR matching — the scheduler (typically PIM) runs over the ports
 *     left free, including scheduled-but-idle CBR pairings, so VBR fills
 *     every slot CBR does not use (§4).
 *  3. Forwarding across the crossbar; departures leave on output links.
 *
 * With output_speedup k > 1 (replicated fabric, §3.1) up to k cells reach
 * an output per slot and drain through an output queue at one per slot.
 *
 * The VBR buffers, their persistent request matrix, the dead-port masks
 * and the masked matching step are the shared VoqCore; this adapter adds
 * the CBR schedule, pipelining and output speedup. The matcher runs
 * every slot, even on an empty matrix. Steady-state runSlot() performs
 * no heap allocation.
 */
#ifndef AN2_SIM_IQ_SWITCH_H
#define AN2_SIM_IQ_SWITCH_H

#include <cstdint>
#include <memory>
#include <vector>

#include "an2/base/ring.h"
#include "an2/cbr/frame_schedule.h"
#include "an2/fabric/crossbar.h"
#include "an2/sim/switch.h"
#include "an2/sim/voq_core.h"

namespace an2 {

/** Configuration for an InputQueuedSwitch. */
struct IqSwitchConfig
{
    /** Switch size N. */
    int n = 16;

    /** Cells deliverable to one output per slot (1 = plain crossbar). */
    int output_speedup = 1;

    /**
     * Model the hardware scheduling pipeline: the matching used in slot
     * t is computed during slot t-1 ("there is a fixed amount of time to
     * schedule the switch -- the time to receive one cell", §3.2), so
     * datagram cells see one extra slot of latency and a cell arriving
     * in slot t is first eligible in slot t+1. CBR cells are unaffected
     * (their schedule is precomputed). Off by default: the unpipelined
     * model shifts every VBR delay by the same constant.
     */
    bool pipelined = false;
};

/** The AN2 switch: VOQ input buffers + pluggable matcher + CBR schedule. */
class InputQueuedSwitch final : public SwitchModel
{
  public:
    /**
     * @param config Switch parameters.
     * @param matcher VBR scheduling algorithm (owned).
     * @param cbr_schedule Optional frame schedule for CBR traffic; not
     *        owned, may be updated externally between slots (reservation
     *        changes). Must outlive the switch. Output speedup > 1 cannot
     *        be combined with a CBR schedule.
     */
    InputQueuedSwitch(const IqSwitchConfig& config,
                      std::unique_ptr<Matcher> matcher,
                      const FrameSchedule* cbr_schedule = nullptr);

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

    /** CBR cells among droppedCells() (lost reserved traffic). */
    int64_t cbrCellsLost() const { return cbr_cells_lost_; }

    /** The per-slot invariant ledger (conservation totals). */
    const fault::InvariantChecker& invariants() const
    {
        return core_.invariants();
    }

    /** CBR cells forwarded so far. */
    int64_t cbrForwarded() const { return cbr_forwarded_; }

    /** VBR cells forwarded so far. */
    int64_t vbrForwarded() const { return vbr_forwarded_; }

    /** VBR cells forwarded inside scheduled-but-idle CBR slots. */
    int64_t vbrInCbrSlots() const { return vbr_in_cbr_slots_; }

    /** The crossbar fabric (utilization statistics). */
    const Crossbar& crossbar() const { return crossbar_; }

    /** The VBR scheduler. */
    Matcher& matcher() { return core_.matcher(); }

    /** The persistent VBR request matrix (patched incrementally). */
    const RequestMatrix& vbrRequests() const { return core_.requests(); }

    /** Real VOQ occupancy (VBR + CBR buffers, plus speedup output
        queues in the backlog). */
    void fillOccupancy(int32_t* voq, int32_t* backlog) const override;

  private:
    /** Serve the frame schedule's pairings for `slot` into forwarded_,
        marking claimed ports in in_busy_/out_busy_; returns count. */
    int serveCbr(SlotTime slot);

    /** Predict the ports the frame schedule will claim in `slot`,
        marking them in next_in_/next_out_; returns true if any. */
    bool predictCbrBusy(SlotTime slot);

    /** Dequeue the VBR cell behind pairing (i,j) and log statistics. */
    void forwardVbr(SlotTime slot, PortId i, PortId j);

    /**
     * Compute a VBR matching into `out`, excluding the ports whose bits
     * are set in the given busy masks (`any_busy` false = all free).
     */
    void computeVbrMatch(const uint64_t* in_busy, const uint64_t* out_busy,
                         bool any_busy, Matching& out);

    IqSwitchConfig config_;
    /** VBR VOQs and their requests; CBR cells never request. */
    VoqCore core_;
    const FrameSchedule* cbr_schedule_;
    /** CBR buffers, one per input; empty without a frame schedule. */
    std::vector<InputBuffer> cbr_bufs_;
    std::vector<RingQueue<Cell>> out_queues_;  ///< used when speedup > 1
    Crossbar crossbar_;

    // Per-slot scratch, reused so steady-state slots never allocate.
    std::vector<uint64_t> in_busy_;    ///< inputs claimed by CBR
    std::vector<uint64_t> out_busy_;   ///< outputs claimed by CBR
    std::vector<uint64_t> next_in_;    ///< predicted busy, next slot
    std::vector<uint64_t> next_out_;   ///< predicted busy, next slot
    Matching vbr_match_;               ///< matcher output buffer
    Matching combined_;                ///< CBR + VBR crossbar setting
    std::vector<Cell> forwarded_;      ///< cells crossing this slot
    std::vector<Cell> departed_;       ///< runSlot return (speedup > 1)

    /** Pipelined mode: the matching precomputed for the next slot. */
    Matching pending_vbr_;
    bool has_pending_ = false;

    int64_t cbr_cells_lost_ = 0;

    int64_t cbr_forwarded_ = 0;
    int64_t vbr_forwarded_ = 0;
    int64_t vbr_in_cbr_slots_ = 0;
};

}  // namespace an2

#endif  // AN2_SIM_IQ_SWITCH_H
