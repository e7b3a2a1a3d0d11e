/**
 * @file
 * Graceful degradation under a port outage: throughput and delay
 * before, during, and after an output-port failure on the Figure-3
 * workload (16x16, uniform, PIM with 4 iterations), with CBR bookings
 * repaired through the incremental Slepian-Duguid scheduler.
 *
 * Scenario: output 3 dies at slot 40,000 and revives at slot 60,000
 * (out_down(3)@40000,out_up(3)@60000). While it is down, arrivals for
 * it are dropped at ingress and its CBR reservations are revoked; the
 * other 15 outputs keep their service. On revival the repair engine
 * re-places every revoked booking at a bounded number of placements per
 * slot and the measured repair latency is reported, together with the
 * count of reserved-traffic cells lost to the outage.
 *
 * Everything is seeded and scripted, so the numbers in EXPERIMENTS.md
 * ("Degradation under failures") reproduce exactly.
 */
#include <cstdio>
#include <memory>

#include "an2/cbr/admission.h"
#include "an2/cbr/slepian_duguid.h"
#include "an2/fault/cbr_repair.h"
#include "an2/fault/chaos.h"
#include "an2/fault/fault_plan.h"
#include "an2/fault/injector.h"
#include "an2/fault/restoration.h"
#include "an2/harness/sweep.h"
#include "an2/matching/pim.h"
#include "an2/sim/iq_switch.h"
#include "an2/sim/traffic.h"
#include "an2/topo/lan.h"
#include "an2/topo/topology.h"
#include "bench_common.h"

namespace an2::bench {
namespace {

constexpr int kN = 16;
constexpr int kFrame = 32;
constexpr SlotTime kSlots = 100'000;
constexpr SlotTime kWarmup = 10'000;
constexpr SlotTime kFailAt = 40'000;
constexpr SlotTime kReviveAt = 60'000;
constexpr PortId kDeadOutput = 3;

/** Per-window accumulation of the VBR service. */
struct Window
{
    const char* label;
    SlotTime begin;
    SlotTime end;
    int64_t injected = 0;
    int64_t delivered = 0;
    int64_t delay_sum = 0;

    bool contains(SlotTime slot) const
    {
        return slot >= begin && slot < end;
    }

    double throughput() const
    {
        // Delivered cells per live output per slot; the outage window
        // has only 15 live outputs, which is the point of the table.
        return static_cast<double>(delivered) /
               (static_cast<double>(end - begin) * kN);
    }

    double meanDelay() const
    {
        return delivered ? static_cast<double>(delay_sum) /
                               static_cast<double>(delivered)
                         : 0.0;
    }
};

int
run()
{
    // CBR control plane: one light booking per input plus a cluster of
    // reservations crossing the output that will fail.
    SlepianDuguidScheduler sched(kN, kFrame);
    AdmissionController adm(kFrame);
    fault::CbrRepairEngine repair(sched, adm, kN, /*ops_per_slot=*/2);
    for (PortId i = 0; i < kN; ++i)
        if (!repair.book(i, (i + 5) % kN, 1))
            return 1;
    for (PortId i : {1, 2, 4, 6})
        if (!repair.book(i, kDeadOutput, 1))
            return 1;
    const int total_bookings = repair.bookings();

    fault::FaultPlan plan = fault::FaultPlan::parse(
        "out_down(3)@40000,out_up(3)@60000");
    fault::FaultInjector injector(kN, plan, /*seed=*/2026);
    injector.addListener(&repair);

    // 0.8 uniform datagram load plus the CBR overlay puts the hottest
    // output (the one that will fail: 5 reserved cells per 32-slot
    // frame) at ~0.96 offered — loaded but stable, per Figure 3.
    InputQueuedSwitch sw(IqSwitchConfig{.n = kN}, makePim(4, 7),
                         &sched.schedule());
    UniformTraffic traffic(kN, 0.8, 11);

    Window windows[] = {
        {"before", kWarmup, kFailAt},
        {"outage", kFailAt, kReviveAt},
        {"after", kReviveAt, kSlots},
    };

    int64_t cbr_injected = 0, cbr_lost_ingress = 0, cbr_delivered = 0;
    std::vector<Cell> arrivals;
    int64_t cbr_seq = 0;
    for (SlotTime slot = 0; slot < kSlots; ++slot) {
        injector.beginSlot(slot, &sw);

        // Reserved traffic: each booking's source offers its k cells at
        // the top of every frame, oblivious to the outage (the endpoint
        // keeps transmitting until admission tells it otherwise).
        if (slot % kFrame == 0) {
            const auto offer = [&](PortId i, PortId j, int k) {
                for (int c = 0; c < k; ++c) {
                    Cell cell;
                    cell.flow = 100'000 + i * kN + j;
                    cell.input = i;
                    cell.output = j;
                    cell.cls = TrafficClass::CBR;
                    cell.seq = cbr_seq++;
                    cell.inject_slot = slot;
                    ++cbr_injected;
                    if (injector.classifyArrival(cell) ==
                        fault::FaultInjector::Verdict::Deliver)
                        sw.acceptCell(cell);
                    else
                        ++cbr_lost_ingress;
                }
            };
            for (PortId i = 0; i < kN; ++i)
                offer(i, (i + 5) % kN, 1);
            for (PortId i : {1, 2, 4, 6})
                offer(i, kDeadOutput, 1);
        }

        // Datagram background (Figure-3 workload).
        arrivals.clear();
        traffic.generate(slot, arrivals);
        for (const Cell& c : arrivals) {
            for (Window& w : windows)
                if (w.contains(slot))
                    ++w.injected;
            if (injector.classifyArrival(c) ==
                fault::FaultInjector::Verdict::Deliver)
                sw.acceptCell(c);
        }

        for (const Cell& c : sw.runSlot(slot)) {
            if (c.cls == TrafficClass::CBR) {
                ++cbr_delivered;
                continue;
            }
            for (Window& w : windows) {
                if (w.contains(slot)) {
                    ++w.delivered;
                    w.delay_sum += slot - c.inject_slot;
                }
            }
        }
    }

    banner("bench_fault_recovery -- service through an output-port outage",
           "robustness scenario on the Figure 3 workload (16x16, "
           "uniform 0.8 + CBR overlay, PIM(4))");
    std::printf("  output %d down at slot %lld, up at slot %lld; first %lld"
                " slots are warmup\n\n",
                kDeadOutput, static_cast<long long>(kFailAt),
                static_cast<long long>(kReviveAt),
                static_cast<long long>(kWarmup));
    std::printf("  window    slots     offered   tput/port   mean VBR "
                "delay (slots)\n");
    for (const Window& w : windows) {
        double offered = static_cast<double>(w.injected) /
                         (static_cast<double>(w.end - w.begin) * kN);
        std::printf("  %-8s  %6lld     %5.3f     %5.3f       %8.2f\n",
                    w.label, static_cast<long long>(w.end - w.begin),
                    offered, w.throughput(), w.meanDelay());
    }

    const fault::RepairStats& rs = repair.stats();
    std::printf("\n  CBR: %d bookings (%lld cells/frame offered); "
                "%lld injected, %lld delivered,\n"
                "       %lld lost at the dead port, %lld buffered\n",
                total_bookings, static_cast<long long>(kN + 4),
                static_cast<long long>(cbr_injected),
                static_cast<long long>(cbr_delivered),
                static_cast<long long>(cbr_lost_ingress +
                                       sw.cbrCellsLost()),
                static_cast<long long>(cbr_injected - cbr_delivered -
                                       cbr_lost_ingress -
                                       sw.cbrCellsLost()));
    std::printf("  repair: %lld reservations revoked at the failure, %lld "
                "re-placed after revival\n"
                "          (%lld failed), repair latency %lld slots at 2 "
                "placements/slot\n",
                static_cast<long long>(rs.revoked),
                static_cast<long long>(rs.rebooked),
                static_cast<long long>(rs.rebook_failed),
                static_cast<long long>(rs.last_repair_latency));
    std::printf("  datagram cells dropped at the dead port: %lld\n",
                static_cast<long long>(injector.cellsDropped() -
                                       cbr_lost_ingress));
    if (!repair.fullyRepaired()) {
        std::printf("  ERROR: repair incomplete at end of run\n");
        return 1;
    }
    return 0;
}

/**
 * Restoration at LAN scale: a 16-ary fat-tree under seeded chaos churn
 * (link + switch kills with revivals), CBR paths restored end to end by
 * the PathRestorer. One row per churn rate: terminal-state mix, retry
 * count, and the restoration-latency p50/p99 in slots. Fully seeded —
 * the table in EXPERIMENTS.md reproduces exactly.
 */
int
runLanRestoration()
{
    constexpr uint64_t kBaseSeed = 4001;
    constexpr int64_t kFrames = 20;
    const double kRates[] = {1.0, 4.0, 16.0};

    banner("bench_fault_recovery -- restoration at LAN scale",
           "fat-tree k=16 (320 switches, 512 hosts), uniform VBR+CBR "
           "matrix, seeded chaos(link+switch), CBR path restoration");
    std::printf("  churn rate = expected kill episodes per 1000 slots; "
                "%lld frames per run\n\n",
                static_cast<long long>(kFrames));
    std::printf("  rate   episodes  restored  degraded  abandoned  pending"
                "  retries   p50    p99  (slots)\n");

    topo::Topology topo = topo::Topology::fatTree(16, 4);
    int run_index = 0;
    for (double rate : kRates) {
        topo::LanConfig config;
        config.seed = harness::runSeed(kBaseSeed, run_index, 0);
        config.matcher = [](int /*n_ports*/, uint64_t seed) {
            PimConfig cfg;
            cfg.iterations = 4;
            cfg.seed = seed;
            return std::make_unique<PimMatcher>(cfg);
        };
        topo::Lan lan(topo, config);
        const uint64_t place_seed =
            harness::runSeed(kBaseSeed, run_index, 1);
        lan.placeMatrix(topo::Pattern::Uniform,
                        topo::TrafficSpec{TrafficClass::VBR, 0.05, 0},
                        place_seed);
        lan.placeMatrix(topo::Pattern::Uniform,
                        topo::TrafficSpec{TrafficClass::CBR, 0.0, 1},
                        place_seed + 1);

        fault::RestorePolicy policy;
        policy.seed = harness::runSeed(kBaseSeed, run_index, 2);
        lan.enableRestoration(policy);

        fault::ChaosSpec chaos;
        chaos.seed = 7;
        chaos.rate = rate;
        chaos.kinds = fault::kChaosLink | fault::kChaosSwitch;
        const SlotTime horizon =
            kFrames * lan.net().config().switch_frame_slots;
        lan.scheduleFaults(fault::expandChaos(
            chaos, fault::chaosEnvFor(lan.net(), horizon)));

        lan.runFrames(kFrames);
        const fault::RestoreStats& rs = lan.restorer()->stats();
        std::printf("  %4.1f   %8lld  %8lld  %8lld  %9lld  %7d  %7lld  "
                    "%5lld  %5lld\n",
                    rate, static_cast<long long>(rs.episodes),
                    static_cast<long long>(rs.restored),
                    static_cast<long long>(rs.degraded),
                    static_cast<long long>(rs.abandoned),
                    lan.restorer()->pendingCount(),
                    static_cast<long long>(rs.retries),
                    static_cast<long long>(rs.latency_slots.quantile(0.50)),
                    static_cast<long long>(rs.latency_slots.quantile(0.99)));
        ++run_index;
    }
    std::printf("\n  every episode ends Restored, Degraded, or Abandoned; "
                "the conservation\n  invariant (revoked == replaced + shed "
                "+ pending) is checked at each step\n");
    return 0;
}

}  // namespace
}  // namespace an2::bench

int
main()
{
    int rc = an2::bench::run();
    if (rc != 0)
        return rc;
    return an2::bench::runLanRestoration();
}
