// Tests for the sequential greedy baseline (an2/matching/serial_greedy.h).
#include "an2/matching/serial_greedy.h"

#include <gtest/gtest.h>

#include "an2/matching/hopcroft_karp.h"

namespace an2 {
namespace {

TEST(GreedyTest, AlwaysMaximalAndLegal)
{
    SerialGreedyMatcher greedy(true, 5);
    Xoshiro256 rng(2);
    for (int t = 0; t < 100; ++t) {
        auto req = RequestMatrix::bernoulli(16, 0.3, rng);
        Matching m = greedy.match(req);
        EXPECT_TRUE(m.isLegalFor(req));
        EXPECT_TRUE(m.isMaximalFor(req));
    }
}

TEST(GreedyTest, FixedOrderDeterministic)
{
    SerialGreedyMatcher a(false);
    SerialGreedyMatcher b(false);
    Xoshiro256 rng(3);
    auto req = RequestMatrix::bernoulli(8, 0.5, rng);
    Matching ma = a.match(req);
    Matching mb = b.match(req);
    for (PortId i = 0; i < 8; ++i)
        EXPECT_EQ(ma.outputOf(i), mb.outputOf(i));
}

TEST(GreedyTest, FixedOrderPrefersLowestIndices)
{
    SerialGreedyMatcher greedy(false);
    RequestMatrix req(4);
    req.set(0, 1, true);
    req.set(0, 2, true);
    req.set(1, 1, true);
    Matching m = greedy.match(req);
    EXPECT_EQ(m.outputOf(0), 1);  // input 0 takes the first candidate
    EXPECT_EQ(m.outputOf(1), kNoPort);  // input 1 blocked at output 1
}

TEST(GreedyTest, AtLeastHalfOfMaximum)
{
    SerialGreedyMatcher greedy(true, 7);
    Xoshiro256 rng(4);
    for (int t = 0; t < 100; ++t) {
        auto req = RequestMatrix::bernoulli(10, 0.25, rng);
        int g = greedy.match(req).size();
        int mx = maximumMatchingSize(req);
        EXPECT_GE(2 * g, mx);
        EXPECT_LE(g, mx);
    }
}

TEST(GreedyTest, FullRequestsFullyMatched)
{
    SerialGreedyMatcher greedy(true, 9);
    RequestMatrix req(8);
    for (PortId i = 0; i < 8; ++i)
        for (PortId j = 0; j < 8; ++j)
            req.set(i, j, true);
    EXPECT_EQ(greedy.match(req).size(), 8);
}

TEST(GreedyTest, NamesDifferByMode)
{
    EXPECT_NE(SerialGreedyMatcher(true).name(),
              SerialGreedyMatcher(false).name());
}

}  // namespace
}  // namespace an2
