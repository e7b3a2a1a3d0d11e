/**
 * @file
 * Shared helpers for the experiment harnesses: fixed-width table
 * printing and canonical simulation wrappers. Every bench binary prints
 * the rows/series of the paper artifact it reproduces.
 */
#ifndef AN2_BENCH_BENCH_COMMON_H
#define AN2_BENCH_BENCH_COMMON_H

#include <cstdio>
#include <memory>
#include <string>

#include "an2/matching/pim.h"
#include "an2/sim/iq_switch.h"
#include "an2/sim/simulator.h"

namespace an2::bench {

/** Print a bench header banner. */
inline void
banner(const std::string& title, const std::string& paper_ref)
{
    std::printf("\n============================================================"
                "====================\n");
    std::printf("%s\n", title.c_str());
    std::printf("Reproduces: %s\n", paper_ref.c_str());
    std::printf("--------------------------------------------------------------"
                "------------------\n");
}

/** Construct a PIM matcher with the given iteration count and seed. */
inline std::unique_ptr<Matcher>
makePim(int iterations, uint64_t seed, int output_capacity = 1,
        AcceptPolicy accept = AcceptPolicy::Random)
{
    PimConfig cfg;
    cfg.iterations = iterations;
    cfg.seed = seed;
    cfg.output_capacity = output_capacity;
    cfg.accept = accept;
    return std::make_unique<PimMatcher>(cfg);
}

/** Canonical load axis of the Figure 3/4/5 and speedup sweeps. */
inline const double kLoadSweep[] = {0.20, 0.40, 0.60, 0.70, 0.80,
                                    0.90, 0.95, 0.99};
inline constexpr int kLoadSweepSize = 8;

/** Standard simulation length for the delay-vs-load experiments. */
inline SimConfig
standardSimConfig()
{
    SimConfig cfg;
    cfg.slots = 120'000;
    cfg.warmup = 20'000;
    return cfg;
}

}  // namespace an2::bench

#endif  // AN2_BENCH_BENCH_COMMON_H
