// Tests for Hopcroft-Karp maximum matching (an2/matching/hopcroft_karp.h).
#include "an2/matching/hopcroft_karp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "an2/base/rng.h"

namespace an2 {
namespace {

/** Exhaustive maximum-matching size by trying all input subsets (small N). */
int
bruteForceMaximum(const RequestMatrix& req)
{
    int n_in = req.numInputs();
    int n_out = req.numOutputs();
    int best = 0;
    // Recursive assignment over inputs with used-output mask.
    std::function<void(int, uint32_t, int)> go = [&](int i, uint32_t used,
                                                     int size) {
        if (i == n_in) {
            best = std::max(best, size);
            return;
        }
        go(i + 1, used, size);  // leave input i unmatched
        for (int j = 0; j < n_out; ++j) {
            if (req.has(i, j) && !(used & (1u << j)))
                go(i + 1, used | (1u << j), size + 1);
        }
    };
    go(0, 0, 0);
    return best;
}

TEST(HopcroftKarpTest, EmptyGraph)
{
    HopcroftKarpMatcher hk;
    RequestMatrix req(5);
    EXPECT_EQ(hk.match(req).size(), 0);
}

TEST(HopcroftKarpTest, PerfectMatchingOnPermutation)
{
    HopcroftKarpMatcher hk;
    RequestMatrix req(8);
    for (PortId i = 0; i < 8; ++i)
        req.set(i, (i * 3) % 8, true);
    Matching m = hk.match(req);
    EXPECT_EQ(m.size(), 8);
    EXPECT_TRUE(m.isLegalFor(req));
}

TEST(HopcroftKarpTest, FindsAugmentingPathGreedyMisses)
{
    // The classic example: greedy matching (0,0) blocks (1,0); maximum
    // re-routes 0 to 1.
    RequestMatrix req(2);
    req.set(0, 0, true);
    req.set(0, 1, true);
    req.set(1, 0, true);
    HopcroftKarpMatcher hk;
    Matching m = hk.match(req);
    EXPECT_EQ(m.size(), 2);
    EXPECT_EQ(m.outputOf(0), 1);
    EXPECT_EQ(m.outputOf(1), 0);
}

TEST(HopcroftKarpTest, MatchesBruteForceOnAllDensities)
{
    Xoshiro256 rng(17);
    for (int n : {2, 3, 4, 5, 6}) {
        for (double p : {0.15, 0.3, 0.5, 0.8}) {
            for (int t = 0; t < 30; ++t) {
                auto req = RequestMatrix::bernoulli(n, p, rng);
                HopcroftKarpMatcher hk;
                Matching m = hk.match(req);
                EXPECT_TRUE(m.isLegalFor(req));
                EXPECT_EQ(m.size(), bruteForceMaximum(req))
                    << "n=" << n << " p=" << p << " trial=" << t;
            }
        }
    }
}

TEST(HopcroftKarpTest, MaximumIsAlsoMaximal)
{
    Xoshiro256 rng(19);
    HopcroftKarpMatcher hk;
    for (int t = 0; t < 50; ++t) {
        auto req = RequestMatrix::bernoulli(12, 0.4, rng);
        Matching m = hk.match(req);
        EXPECT_TRUE(m.isMaximalFor(req));
    }
}

TEST(HopcroftKarpTest, FullBipartiteGraphSaturates)
{
    HopcroftKarpMatcher hk;
    RequestMatrix req(16);
    for (PortId i = 0; i < 16; ++i)
        for (PortId j = 0; j < 16; ++j)
            req.set(i, j, true);
    EXPECT_EQ(hk.match(req).size(), 16);
}

TEST(HopcroftKarpTest, SizeHelperAgrees)
{
    Xoshiro256 rng(23);
    auto req = RequestMatrix::bernoulli(10, 0.3, rng);
    HopcroftKarpMatcher hk;
    EXPECT_EQ(maximumMatchingSize(req), hk.match(req).size());
}

TEST(HopcroftKarpTest, StarvationScenarioAlwaysExcludesWeakConnection)
{
    // §3.4: with a sufficient supply of cells, maximum matching *never*
    // serves (0,1) in this Figure 2-style pattern — input 0 requests
    // outputs {1,2}, input 1 requests {1} only, so the unique maximum
    // match pairs 1->1 and 0->2 every slot and connection (0,1) starves.
    RequestMatrix req(3);
    req.set(0, 1, true);
    req.set(0, 2, true);
    req.set(1, 1, true);
    HopcroftKarpMatcher hk;
    for (int slot = 0; slot < 100; ++slot) {
        Matching m = hk.match(req);
        EXPECT_EQ(m.size(), 2);
        EXPECT_EQ(m.outputOf(0), 2);
        EXPECT_EQ(m.outputOf(1), 1);
    }
}

}  // namespace
}  // namespace an2
