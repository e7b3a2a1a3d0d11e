#include "an2/network/net_switch.h"

#include <algorithm>

#include "an2/base/error.h"
#include "an2/fault/invariants.h"
#include "an2/matching/wordset.h"

namespace an2 {

NetSwitch::NetSwitch(NodeId id, LocalClock clock, int n_ports,
                     int frame_slots, std::unique_ptr<Matcher> vbr_matcher,
                     bool fifo_merge)
    : NetNode(id, clock), n_ports_(n_ports), frame_slots_(frame_slots),
      fifo_merge_(fifo_merge),
      vbr_(n_ports, std::move(vbr_matcher), "NetSwitch"),
      cbr_(n_ports, frame_slots),
      in_links_(static_cast<size_t>(n_ports), nullptr),
      out_links_(static_cast<size_t>(n_ports), nullptr),
      unlinked_out_(static_cast<size_t>(vbr_.maskWords()), 0),
      in_busy_(static_cast<size_t>(vbr_.maskWords()), 0),
      out_busy_(static_cast<size_t>(vbr_.maskWords()), 0), match_(n_ports)
{
    AN2_REQUIRE(frame_slots > 0, "frame must be non-empty");
    wordset::fillFirst(unlinked_out_.data(), vbr_.maskWords(), n_ports);
    cbr_bufs_.reserve(static_cast<size_t>(n_ports));
    for (int p = 0; p < n_ports; ++p)
        cbr_bufs_.emplace_back(n_ports);
    occupancy_.max_cbr_per_input.assign(static_cast<size_t>(n_ports), 0);
    occupancy_.max_vbr_per_input.assign(static_cast<size_t>(n_ports), 0);
}

void
NetSwitch::checkPort(PortId p) const
{
    AN2_REQUIRE(p >= 0 && p < n_ports_, "port " << p << " out of range");
}

void
NetSwitch::setInLink(PortId p, NetLink* link)
{
    checkPort(p);
    AN2_REQUIRE(in_links_[static_cast<size_t>(p)] == nullptr,
                "input port " << p << " already connected");
    in_links_[static_cast<size_t>(p)] = link;
}

void
NetSwitch::setOutLink(PortId p, NetLink* link)
{
    checkPort(p);
    AN2_REQUIRE(out_links_[static_cast<size_t>(p)] == nullptr,
                "output port " << p << " already connected");
    out_links_[static_cast<size_t>(p)] = link;
    if (link != nullptr)
        wordset::clearBit(unlinked_out_.data(), p);
}

bool
NetSwitch::addRoute(FlowId flow, PortId in_port, PortId out_port,
                    TrafficClass cls, int cells_per_frame)
{
    checkPort(in_port);
    checkPort(out_port);
    AN2_REQUIRE(!routes_.contains(flow),
                "flow " << flow << " already routed through this switch");
    if (cls == TrafficClass::CBR) {
        if (!cbr_.addReservation(in_port, out_port, cells_per_frame))
            return false;
    }
    routes_[flow] = {out_port, cls,
                     cls == TrafficClass::CBR ? cells_per_frame : 0, in_port,
                     false};
    return true;
}

void
NetSwitch::revokeCbrRoute(FlowId flow)
{
    Route* route = routes_.get(flow);
    AN2_REQUIRE(route != nullptr && route->cls == TrafficClass::CBR,
                "flow " << flow
                        << " has no CBR route through this switch");
    if (route->revoked)
        return;
    cbr_.removeReservation(route->in_port, route->out_port,
                           route->cells_per_frame);
    route->revoked = true;
    fault::InvariantChecker::checkScheduleRealizes(
        cbr_.schedule(), cbr_.reservations(), "NetSwitch revoke");
}

bool
NetSwitch::restoreCbrRoute(FlowId flow, PortId in_port, PortId out_port,
                           int cells_per_frame)
{
    checkPort(in_port);
    checkPort(out_port);
    AN2_REQUIRE(cells_per_frame > 0, "restored reservation must be positive");
    Route* route = routes_.get(flow);
    if (route == nullptr) {
        // This switch is new to the flow: a plain install.
        return addRoute(flow, in_port, out_port, TrafficClass::CBR,
                        cells_per_frame);
    }
    AN2_REQUIRE(route->cls == TrafficClass::CBR && route->revoked,
                "flow " << flow << " has a live route; revoke before "
                        << "restoring");
    if (!cbr_.addReservation(in_port, out_port, cells_per_frame))
        return false;
    // Cells queued before the fault: still valid when the flow enters by
    // the same port (retag to the new output, FIFO order kept); purged
    // when the ingress moved — their (input, output) schedule slots no
    // longer exist.
    for (PortId p = 0; p < n_ports_; ++p) {
        if (p == in_port)
            cbr_bufs_[static_cast<size_t>(p)].rebindFlow(flow, out_port);
        else
            purgeCbrQueueAt(p, flow);
    }
    route->in_port = in_port;
    route->out_port = out_port;
    route->cells_per_frame = cells_per_frame;
    route->revoked = false;
    fault::InvariantChecker::checkScheduleRealizes(
        cbr_.schedule(), cbr_.reservations(), "NetSwitch restore");
    return true;
}

int
NetSwitch::purgeCbrQueueAt(PortId p, FlowId flow)
{
    int n = cbr_bufs_[static_cast<size_t>(p)].purgeFlow(flow);
    if (n > 0) {
        restore_purged_ += n;
        int& cur = flow_occupancy_[flow];
        cur -= n;
        AN2_ASSERT(cur >= 0, "negative flow occupancy after purge");
    }
    return n;
}

int
NetSwitch::purgeCbrFlow(FlowId flow)
{
    int purged = 0;
    for (PortId p = 0; p < n_ports_; ++p)
        purged += purgeCbrQueueAt(p, flow);
    return purged;
}

bool
NetSwitch::cbrRouteRevoked(FlowId flow) const
{
    const Route* route = routes_.get(flow);
    return route != nullptr && route->revoked;
}

void
NetSwitch::updateRoute(FlowId flow, PortId out_port)
{
    checkPort(out_port);
    Route* route = routes_.get(flow);
    AN2_REQUIRE(route != nullptr,
                "flow " << flow << " not routed through this switch");
    AN2_REQUIRE(route->cls == TrafficClass::VBR,
                "CBR flow " << flow << " is pinned to its reservation");
    AN2_REQUIRE(!fifo_merge_,
                "cannot reroute flows inside FIFO-merged buffers");
    if (route->out_port == out_port)
        return;
    route->out_port = out_port;
    // Cells already buffered follow the new route too, requests and all.
    vbr_.rebindFlow(flow, out_port);
}

PortId
NetSwitch::routeOutPort(FlowId flow) const
{
    const Route* route = routes_.get(flow);
    AN2_REQUIRE(route != nullptr,
                "flow " << flow << " not routed through this switch");
    return route->out_port;
}

void
NetSwitch::setVbrBufferLimit(int cells)
{
    AN2_REQUIRE(cells >= 0, "buffer limit must be non-negative");
    vbr_buffer_limit_ = cells;
}

void
NetSwitch::noteOccupancy(const Cell& cell, int delta)
{
    if (cell.cls != TrafficClass::CBR)
        return;
    int& cur = flow_occupancy_[cell.flow];
    cur += delta;
    AN2_ASSERT(cur >= 0, "negative flow occupancy");
    int& peak = occupancy_.max_per_cbr_flow[cell.flow];
    peak = std::max(peak, cur);
}

void
NetSwitch::acceptArrivals(PicoTime now)
{
    for (PortId p = 0; p < n_ports_; ++p) {
        NetLink* link = in_links_[static_cast<size_t>(p)];
        if (link == nullptr)
            continue;
        arrivals_.clear();
        link->deliverInto(now, arrivals_);
        for (Cell c : arrivals_) {
            const Route* route = routes_.get(c.flow);
            AN2_REQUIRE(route != nullptr,
                        "cell of unrouted flow " << c.flow << " at switch "
                                                 << id_);
            if (route->revoked) {
                // Mid-restoration: the reservation is gone, so the cell
                // has no schedule slot to ride. It is shed here rather
                // than parked — the restorer re-sources the flow once a
                // new path is admitted.
                ++restore_dropped_;
                continue;
            }
            c.input = p;
            c.output = route->out_port;
            if (route->cls == TrafficClass::CBR) {
                cbr_bufs_[static_cast<size_t>(p)].enqueue(c);
                noteOccupancy(c, +1);
                auto& peak =
                    occupancy_.max_cbr_per_input[static_cast<size_t>(p)];
                peak = std::max(
                    peak, cbr_bufs_[static_cast<size_t>(p)].totalCells());
            } else {
                const InputBuffer& vb = vbr_.input(p);
                if (vbr_buffer_limit_ > 0 &&
                    vb.totalCells() >= vbr_buffer_limit_) {
                    ++vbr_dropped_;  // flow-controlled datagram buffer full
                    continue;
                }
                // FIFO merge: one queue per (input, output) pair, all
                // flows mixed.
                vbr_.enqueueAs(
                    fifo_merge_ ? static_cast<FlowId>(c.output) : c.flow, c);
                auto& peak =
                    occupancy_.max_vbr_per_input[static_cast<size_t>(p)];
                peak = std::max(peak, vb.totalCells());
            }
        }
    }
}

void
NetSwitch::tick()
{
    PicoTime now = clock_.nextTick();
    int64_t slot = clock_.advance();
    acceptArrivals(now);

    auto fs = static_cast<int>(slot % frame_slots_);
    // Frame boundary: close out the Appendix B active-frame runs.
    if (fs == 0) {
        for (auto& [flow, active] : active_this_frame_) {
            int& run = active_run_[flow];
            run = active ? run + 1 : 0;
            int& peak = occupancy_.max_active_frames[flow];
            peak = std::max(peak, run);
            active = false;
        }
    }
    // T(c, s_n): end of this switch's current frame.
    PicoTime frame_end =
        clock_.slotStart((slot / frame_slots_ + 1) * frame_slots_);

    // Phase 1: CBR cells ride their scheduled pairings.
    const int words = vbr_.maskWords();
    wordset::clearAll(in_busy_.data(), words);
    std::copy(unlinked_out_.begin(), unlinked_out_.end(), out_busy_.begin());
    bool any_busy = wordset::anySet(out_busy_.data(), words);
    const FrameSchedule& sched = cbr_.schedule();
    for (PortId i = 0; i < n_ports_; ++i) {
        PortId j = sched.outputAt(fs, i);
        if (j == kNoPort)
            continue;
        auto& buf = cbr_bufs_[static_cast<size_t>(i)];
        if (!buf.hasCellFor(j))
            continue;
        Cell c = buf.dequeueFor(j);
        noteOccupancy(c, -1);
        // Appendix B active-frame accounting for the flow's class 0.
        const Route* route = routes_.get(c.flow);
        if (route != nullptr && route->cells_per_frame > 0 &&
            c.seq % route->cells_per_frame == 0)
            active_this_frame_[c.flow] = true;
        c.frame_end_ps = frame_end;
        ++c.hops;
        AN2_ASSERT(out_links_[static_cast<size_t>(j)] != nullptr,
                   "scheduled output " << j << " has no link");
        out_links_[static_cast<size_t>(j)]->send(c, now);
        wordset::setBit(in_busy_.data(), i);
        wordset::setBit(out_busy_.data(), j);
        any_busy = true;
        ++cbr_forwarded_;
    }

    // Phase 2: VBR matching over the remaining ports.
    if (any_busy)
        vbr_.match(match_, in_busy_.data(), out_busy_.data());
    else
        vbr_.match(match_);
    for (PortId i = 0; i < n_ports_; ++i) {
        PortId j = match_.outputOf(i);
        if (j == kNoPort)
            continue;
        Cell c = vbr_.dequeue(i, j);
        c.frame_end_ps = frame_end;
        ++c.hops;
        out_links_[static_cast<size_t>(j)]->send(c, now);
        ++vbr_forwarded_;
    }
}

}  // namespace an2
