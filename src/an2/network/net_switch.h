/**
 * @file
 * A switch node in the drifting-clock network: VOQ input buffers, a
 * Slepian-Duguid frame schedule for CBR traffic, and a pluggable matcher
 * (PIM or statistical matching) for VBR traffic — the full AN2 switch of
 * §3-§5 embedded in a multi-hop topology.
 *
 * The VBR buffers, their persistent request matrix and the masked
 * matching step are the shared VoqCore; this adapter adds routes, the
 * CBR frame schedule, restoration, Appendix B occupancy statistics and
 * link I/O. Outputs without a link are masked from every matching.
 */
#ifndef AN2_NETWORK_NET_SWITCH_H
#define AN2_NETWORK_NET_SWITCH_H

#include <map>
#include <memory>
#include <vector>

#include "an2/base/flat_map.h"
#include "an2/cbr/slepian_duguid.h"
#include "an2/matching/matcher.h"
#include "an2/network/node.h"
#include "an2/queueing/voq.h"
#include "an2/sim/voq_core.h"

namespace an2 {

/** Buffer-occupancy statistics for one switch. */
struct SwitchOccupancy
{
    /** Peak CBR cells queued per input port. */
    std::vector<int> max_cbr_per_input;

    /** Peak VBR cells queued per input port. */
    std::vector<int> max_vbr_per_input;

    /** Peak queued cells per CBR flow (Appendix B buffer bound). */
    std::map<FlowId, int> max_per_cbr_flow;

    /**
     * Longest run of consecutive *active* frames per CBR flow, measured
     * for the flow's class-0 cells (cells with seq % k == 0). Appendix B
     * analyzes a k cells/frame flow as k independent one-cell-per-frame
     * classes and bounds each class's run length (the first displayed
     * formula of §B.2) — the quantity that caps buffer build-up under
     * clock drift.
     */
    std::map<FlowId, int> max_active_frames;
};

/** Switch node with per-flow routing and CBR + VBR scheduling. */
class NetSwitch final : public NetNode
{
  public:
    /**
     * @param id Node id.
     * @param clock Local clock.
     * @param n_ports Port count.
     * @param frame_slots Switch frame length (CBR schedule period).
     * @param vbr_matcher Scheduler for datagram traffic (owned).
     * @param fifo_merge When true, VBR cells arriving on one input for
     *        one output share a single FIFO queue regardless of flow (the
     *        Figure 9 merge discipline) instead of AN2's per-flow queues
     *        with round-robin service.
     */
    NetSwitch(NodeId id, LocalClock clock, int n_ports, int frame_slots,
              std::unique_ptr<Matcher> vbr_matcher,
              bool fifo_merge = false);

    int ports() const { return n_ports_; }

    /** Attach the incoming link feeding port p. */
    void setInLink(PortId p, NetLink* link);

    /** Attach the outgoing link driven by port p. */
    void setOutLink(PortId p, NetLink* link);

    /**
     * Install the route for a flow crossing this switch and, for CBR
     * flows, reserve cells_per_frame in the frame schedule.
     * @return false if the CBR reservation cannot be accommodated.
     */
    bool addRoute(FlowId flow, PortId in_port, PortId out_port,
                  TrafficClass cls, int cells_per_frame);

    /**
     * Repoint an installed VBR route at a different output port (ECMP
     * failover after a link fault). Cells already buffered keep their
     * original output — they drain, or are lost if that link is down —
     * while cells arriving after the update take the new port. Fatal for
     * unknown flows and for CBR routes (reservations are pinned).
     */
    void updateRoute(FlowId flow, PortId out_port);

    /** True when `flow` is routed through this switch. */
    bool hasRoute(FlowId flow) const { return routes_.contains(flow); }

    /** Output port a flow is currently routed to; fatal if unrouted. */
    PortId routeOutPort(FlowId flow) const;

    void tick() override;

    /**
     * Cap the VBR buffer at each input to `cells` (0 = unlimited, the
     * default). Arriving datagram cells beyond the cap are dropped and
     * counted — the paper's "VBR cells use a different set of buffers,
     * which are subject to flow control" (§4). CBR buffers are statically
     * allocated by admission control and never drop.
     */
    void setVbrBufferLimit(int cells);

    /** Datagram cells dropped by the VBR buffer cap. */
    int64_t vbrDropped() const { return vbr_dropped_; }

    /** Occupancy statistics. */
    const SwitchOccupancy& occupancy() const { return occupancy_; }

    /** The CBR scheduler (reservations and schedule inspection). */
    const SlepianDuguidScheduler& cbrScheduler() const { return cbr_; }

    /** Cells forwarded, per class. */
    int64_t cbrForwarded() const { return cbr_forwarded_; }
    int64_t vbrForwarded() const { return vbr_forwarded_; }

    // ---- CBR path restoration (driven by fault::PathRestorer) ---------

    /**
     * Revoke a CBR flow's reservation here without removing the route
     * entry: its frame slots return to the Slepian-Duguid schedule, and
     * cells of the flow that still arrive (already in flight, or queued
     * upstream) are dropped at ingress and counted under
     * restorationDropped(). Idempotent; fatal for VBR/unknown flows.
     */
    void revokeCbrRoute(FlowId flow);

    /**
     * (Re-)install a CBR route during restoration: reserve
     * `cells_per_frame` on (in_port, out_port) and re-activate the route.
     * Cells still queued from before the fault are rebound to the new
     * output when the input is unchanged, and purged (counted under
     * restorationPurged()) when the flow now enters by a different port —
     * their old schedule slots no longer exist. Works both for flows with
     * a revoked route here and for switches new to the flow.
     * @return false (no state change) if the reservation does not fit.
     */
    bool restoreCbrRoute(FlowId flow, PortId in_port, PortId out_port,
                         int cells_per_frame);

    /**
     * Discard every queued cell of a CBR flow here (the switch left the
     * flow's path for good). @return cells purged (also added to
     * restorationPurged()).
     */
    int purgeCbrFlow(FlowId flow);

    /** True when the flow's route here is revoked (mid-restoration). */
    bool cbrRouteRevoked(FlowId flow) const;

    /** Cells dropped at ingress because their route was revoked. */
    int64_t restorationDropped() const { return restore_dropped_; }

    /** Queued cells purged by restoration re-pathing. */
    int64_t restorationPurged() const { return restore_purged_; }

  private:
    struct Route
    {
        PortId out_port = kNoPort;
        TrafficClass cls = TrafficClass::VBR;
        int cells_per_frame = 0;   ///< CBR reservation (0 for VBR)
        PortId in_port = kNoPort;  ///< ingress port (CBR restoration)
        bool revoked = false;      ///< reservation revoked, not yet rebuilt
    };

    void checkPort(PortId p) const;

    /** Pull arrived cells off the in-links into the input buffers. */
    void acceptArrivals(PicoTime now);

    /** Purge a CBR flow's queue at one input, fixing the occupancy
        ledger and the restoration loss counter. */
    int purgeCbrQueueAt(PortId p, FlowId flow);

    /** Track per-flow and per-input occupancy highs. */
    void noteOccupancy(const Cell& cell, int delta);

    int n_ports_;
    int frame_slots_;
    bool fifo_merge_;
    /** VBR VOQs and their requests; CBR cells never request. */
    VoqCore vbr_;
    SlepianDuguidScheduler cbr_;
    std::vector<NetLink*> in_links_;
    std::vector<NetLink*> out_links_;
    /** Bit j set while output j has no link (never matched). */
    std::vector<uint64_t> unlinked_out_;
    std::vector<InputBuffer> cbr_bufs_;
    /** Flow -> route, looked up per arriving cell (O(1), no tree walk). */
    FlatMap<Route> routes_;
    std::map<FlowId, int> flow_occupancy_;
    /** Per-flow activity in the current frame / current run length. */
    std::map<FlowId, bool> active_this_frame_;
    std::map<FlowId, int> active_run_;
    SwitchOccupancy occupancy_;
    int vbr_buffer_limit_ = 0;
    int64_t vbr_dropped_ = 0;
    int64_t cbr_forwarded_ = 0;
    int64_t vbr_forwarded_ = 0;
    int64_t restore_dropped_ = 0;
    int64_t restore_purged_ = 0;
    // Per-tick scratch, persistent so the slot loop never allocates.
    std::vector<Cell> arrivals_;
    std::vector<uint64_t> in_busy_;   ///< inputs claimed by CBR
    std::vector<uint64_t> out_busy_;  ///< CBR-claimed or unlinked outputs
    Matching match_;
};

}  // namespace an2

#endif  // AN2_NETWORK_NET_SWITCH_H
