// Tests for the Matching result type (an2/matching/matching.h).
#include "an2/matching/matching.h"

#include <gtest/gtest.h>

namespace an2 {
namespace {

TEST(MatchingTest, StartsEmpty)
{
    Matching m(4);
    EXPECT_EQ(m.size(), 0);
    for (PortId i = 0; i < 4; ++i) {
        EXPECT_EQ(m.outputOf(i), kNoPort);
        EXPECT_FALSE(m.isInputMatched(i));
        EXPECT_EQ(m.outputDegree(i), 0);
    }
}

TEST(MatchingTest, AddAndQuery)
{
    Matching m(4);
    m.add(1, 2);
    EXPECT_EQ(m.size(), 1);
    EXPECT_EQ(m.outputOf(1), 2);
    EXPECT_EQ(m.inputOf(2), 1);
    EXPECT_TRUE(m.isInputMatched(1));
    EXPECT_TRUE(m.isOutputSaturated(2));
    EXPECT_FALSE(m.isOutputSaturated(0));
}

TEST(MatchingTest, DoubleMatchInputPanics)
{
    Matching m(4);
    m.add(0, 0);
    EXPECT_THROW(m.add(0, 1), InternalError);
}

TEST(MatchingTest, OutputOverCapacityPanics)
{
    Matching m(4);
    m.add(0, 2);
    EXPECT_THROW(m.add(1, 2), InternalError);
}

TEST(MatchingTest, RemoveInput)
{
    Matching m(4);
    m.add(0, 3);
    m.removeInput(0);
    EXPECT_EQ(m.size(), 0);
    EXPECT_FALSE(m.isInputMatched(0));
    EXPECT_FALSE(m.isOutputSaturated(3));
    m.add(1, 3);  // slot reusable
    EXPECT_EQ(m.inputOf(3), 1);
}

TEST(MatchingTest, RemoveUnmatchedPanics)
{
    Matching m(2);
    EXPECT_THROW(m.removeInput(0), InternalError);
}

TEST(MatchingTest, OutputCapacityAllowsMultipleInputs)
{
    Matching m(4, 4, 2);
    m.add(0, 1);
    m.add(2, 1);
    EXPECT_EQ(m.outputDegree(1), 2);
    EXPECT_TRUE(m.isOutputSaturated(1));
    EXPECT_THROW(m.add(3, 1), InternalError);
    ASSERT_EQ(m.inputsOf(1).size(), 2u);
}

TEST(MatchingTest, PairsInInputOrder)
{
    Matching m(4);
    m.add(3, 0);
    m.add(1, 2);
    auto pairs = m.pairs();
    ASSERT_EQ(pairs.size(), 2u);
    EXPECT_EQ(pairs[0], std::make_pair(1, 2));
    EXPECT_EQ(pairs[1], std::make_pair(3, 0));
}

TEST(MatchingTest, LegalityAgainstRequests)
{
    RequestMatrix req(3);
    req.set(0, 1, true);
    req.set(2, 2, true);
    Matching m(3);
    m.add(0, 1);
    EXPECT_TRUE(m.isLegalFor(req));
    m.add(1, 0);  // no request from 1 to 0
    EXPECT_FALSE(m.isLegalFor(req));
}

TEST(MatchingTest, LegalityRequiresMatchingDimensions)
{
    RequestMatrix req(3);
    Matching m(4);
    EXPECT_FALSE(m.isLegalFor(req));
}

TEST(MatchingTest, MaximalityDetection)
{
    RequestMatrix req(3);
    req.set(0, 0, true);
    req.set(0, 1, true);
    req.set(1, 1, true);
    Matching m(3);
    m.add(0, 0);
    EXPECT_FALSE(m.isMaximalFor(req));  // (1,1) still addable
    m.add(1, 1);
    EXPECT_TRUE(m.isMaximalFor(req));
}

TEST(MatchingTest, EmptyMatchingMaximalForEmptyRequests)
{
    RequestMatrix req(4);
    Matching m(4);
    EXPECT_TRUE(m.isMaximalFor(req));
}

TEST(MatchingTest, CapacityAffectsMaximality)
{
    RequestMatrix req(2);
    req.set(0, 0, true);
    req.set(1, 0, true);
    Matching m1(2, 2, 1);
    m1.add(0, 0);
    EXPECT_TRUE(m1.isMaximalFor(req));  // output 0 saturated at capacity 1
    Matching m2(2, 2, 2);
    m2.add(0, 0);
    EXPECT_FALSE(m2.isMaximalFor(req));  // capacity 2: (1,0) addable
}

TEST(MatchingTest, RejectsBadConstruction)
{
    EXPECT_THROW(Matching(0), UsageError);
    EXPECT_THROW(Matching(2, 2, 0), UsageError);
}

TEST(MatchingTest, RangeChecksOnAdd)
{
    Matching m(2);
    EXPECT_THROW(m.add(-1, 0), UsageError);
    EXPECT_THROW(m.add(0, 2), UsageError);
}

}  // namespace
}  // namespace an2
