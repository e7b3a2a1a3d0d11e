/**
 * @file
 * Quickstart: schedule one slot of a 4x4 switch with parallel iterative
 * matching, tracing each request/grant/accept iteration (the Figure 2
 * walk-through), then run a short simulation of a 16x16 AN2 switch.
 *
 *   $ ./quickstart
 */
#include <cstdio>

#include "an2/matching/pim.h"
#include "an2/sim/iq_switch.h"
#include "an2/sim/simulator.h"
#include "an2/sim/traffic.h"

using namespace an2;

namespace {

/** Print the request pattern as a matrix. */
void
printRequests(const RequestMatrix& req)
{
    std::printf("  requests (rows = inputs, cols = outputs):\n");
    for (PortId i = 0; i < req.numInputs(); ++i) {
        std::printf("    ");
        for (PortId j = 0; j < req.numOutputs(); ++j)
            std::printf("%c ", req.has(i, j) ? '1' : '.');
        std::printf("\n");
    }
}

void
figure2WalkThrough()
{
    std::printf("== Part 1: one PIM run on the Figure 2 request pattern\n\n");
    // Figure 2 (0-based): input 0 requests outputs {0,1}; input 1
    // requests {0,1}; input 2 requests {3}... we use the paper's pattern
    // of five requests across a 4x4 switch.
    RequestMatrix req(4);
    req.set(0, 1, true);
    req.set(0, 2, true);
    req.set(1, 1, true);
    req.set(2, 0, true);
    req.set(3, 3, true);
    printRequests(req);

    PimMatcher pim(PimConfig{.iterations = 0, .seed = 2});
    PimRunStats stats;
    Matching m = pim.matchDetailed(req, stats, 0);

    std::printf("\n  PIM found %d pairings in %d iteration(s)"
                " (maximal: %s):\n",
                m.size(), stats.iterations_run - 1,
                stats.reached_maximal ? "yes" : "no");
    for (auto [i, j] : m.pairs())
        std::printf("    input %d -> output %d\n", i, j);
    std::printf("\n  Cumulative matches by iteration:");
    for (int c : stats.matches_after_iteration)
        std::printf(" %d", c);
    std::printf("\n\n");
}

void
simulateSwitch()
{
    std::printf("== Part 2: a 16x16 AN2 switch at 90%% uniform load\n\n");
    InputQueuedSwitch sw({.n = 16},
                         std::make_unique<PimMatcher>(
                             PimConfig{.iterations = 4, .seed = 1}));
    UniformTraffic traffic(16, 0.9, 7);
    SimConfig cfg;
    cfg.slots = 50'000;
    cfg.warmup = 10'000;
    SimResult res = runSimulation(sw, traffic, cfg);

    std::printf("  switch:        %s\n", sw.name().c_str());
    std::printf("  offered load:  %.3f per link\n", res.offered);
    std::printf("  throughput:    %.3f per link\n", res.throughput);
    std::printf("  mean delay:    %.2f slots (%.2f us at 1 Gb/s)\n",
                res.mean_delay, slotsToMicros(res.mean_delay));
    std::printf("  p99 delay:     %.1f slots\n", res.p99_delay);
    std::printf("  crossbar util: %.3f\n", sw.crossbar().utilization());
}

}  // namespace

int
main()
{
    std::printf("an2sim quickstart -- parallel iterative matching\n\n");
    figure2WalkThrough();
    simulateSwitch();
    return 0;
}
