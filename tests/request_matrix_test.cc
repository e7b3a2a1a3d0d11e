// Tests for the request matrix (an2/matching/request_matrix.h).
#include "an2/matching/request_matrix.h"

#include <gtest/gtest.h>

namespace an2 {
namespace {

TEST(RequestMatrixTest, StartsEmpty)
{
    RequestMatrix req(4);
    EXPECT_EQ(req.numEdges(), 0);
    EXPECT_FALSE(req.has(0, 0));
}

TEST(RequestMatrixTest, ClearEmpties)
{
    RequestMatrix req(3);
    req.set(0, 0, true);
    req.set(2, 1, true);
    req.clear();
    EXPECT_EQ(req.numEdges(), 0);
    EXPECT_FALSE(req.has(0, 0));
    EXPECT_FALSE(req.has(2, 1));
}

TEST(RequestMatrixTest, RectangularDimensions)
{
    RequestMatrix req(2, 5);
    EXPECT_EQ(req.numInputs(), 2);
    EXPECT_EQ(req.numOutputs(), 5);
    req.set(1, 4, true);
    EXPECT_TRUE(req.has(1, 4));
}

TEST(RequestMatrixTest, BernoulliDensityMatchesP)
{
    Xoshiro256 rng(1);
    int edges = 0;
    constexpr int kTrials = 200;
    constexpr int kN = 16;
    for (int t = 0; t < kTrials; ++t) {
        auto req = RequestMatrix::bernoulli(kN, 0.25, rng);
        edges += req.numEdges();
    }
    double density =
        static_cast<double>(edges) / (kTrials * kN * kN);
    EXPECT_NEAR(density, 0.25, 0.01);
}

TEST(RequestMatrixTest, BernoulliExtremes)
{
    Xoshiro256 rng(2);
    EXPECT_EQ(RequestMatrix::bernoulli(8, 0.0, rng).numEdges(), 0);
    EXPECT_EQ(RequestMatrix::bernoulli(8, 1.0, rng).numEdges(), 64);
}

TEST(RequestMatrixTest, MasksTrackMutationsIncrementally)
{
    RequestMatrix req(70);  // two words per row and column
    EXPECT_EQ(req.rowWords(), 2);
    EXPECT_EQ(req.colWords(), 2);
    EXPECT_EQ(req.numEdges(), 0);

    req.set(3, 68, true);
    EXPECT_TRUE(wordset::testBit(req.rowMask(3), 68));
    EXPECT_TRUE(wordset::testBit(req.colMask(68), 3));
    EXPECT_EQ(req.numEdges(), 1);

    // Raising a raised request changes neither the masks nor the edges.
    req.set(3, 68, true);
    EXPECT_TRUE(wordset::testBit(req.rowMask(3), 68));
    EXPECT_EQ(req.numEdges(), 1);

    // Lowering it clears the bit in both views.
    req.set(3, 68, false);
    EXPECT_FALSE(wordset::testBit(req.rowMask(3), 68));
    EXPECT_FALSE(wordset::testBit(req.colMask(68), 3));
    EXPECT_EQ(req.numEdges(), 0);
}

TEST(RequestMatrixTest, MasksMatchCountsOnRandomPatterns)
{
    Xoshiro256 rng(9);
    for (int n : {5, 64, 100}) {
        auto req = RequestMatrix::bernoulli(n, 0.3, rng);
        int edges = 0;
        for (PortId i = 0; i < n; ++i) {
            for (PortId j = 0; j < n; ++j) {
                EXPECT_EQ(wordset::testBit(req.rowMask(i), j),
                          req.has(i, j));
                EXPECT_EQ(wordset::testBit(req.colMask(j), i),
                          req.has(i, j));
                if (req.has(i, j))
                    ++edges;
            }
        }
        EXPECT_EQ(req.numEdges(), edges);
    }
}

TEST(RequestMatrixTest, ClearRowAndColumn)
{
    RequestMatrix req(6);
    for (PortId i = 0; i < 6; ++i)
        for (PortId j = 0; j < 6; ++j)
            req.set(i, j, true);
    EXPECT_EQ(req.numEdges(), 36);

    req.clearRow(2);
    EXPECT_EQ(req.numEdges(), 30);
    for (PortId j = 0; j < 6; ++j) {
        EXPECT_FALSE(req.has(2, j));
        EXPECT_FALSE(wordset::testBit(req.colMask(j), 2));
    }

    req.clearColumn(4);
    EXPECT_EQ(req.numEdges(), 25);
    for (PortId i = 0; i < 6; ++i) {
        EXPECT_FALSE(req.has(i, 4));
        EXPECT_FALSE(wordset::testBit(req.rowMask(i), 4));
    }
    // Clearing an already-clear line is a no-op.
    req.clearRow(2);
    req.clearColumn(4);
    EXPECT_EQ(req.numEdges(), 25);
}

TEST(RequestMatrixTest, CopyAssignPreservesMaskView)
{
    RequestMatrix a(5);
    a.set(1, 2, true);
    a.set(4, 0, true);
    RequestMatrix b(5);
    b.set(0, 0, true);
    b = a;
    EXPECT_EQ(b.numEdges(), 2);
    EXPECT_FALSE(b.has(0, 0));
    EXPECT_TRUE(wordset::testBit(b.rowMask(1), 2));
    EXPECT_TRUE(wordset::testBit(b.colMask(0), 4));
    b.clearRow(1);  // mutating the copy leaves the original intact
    EXPECT_TRUE(a.has(1, 2));
    EXPECT_EQ(a.numEdges(), 2);
}

TEST(RequestMatrixLiveness, DeadPortHidesWithoutDiscarding)
{
    RequestMatrix req(4);
    req.set(1, 2, true);
    req.set(1, 3, true);
    req.set(0, 2, true);
    EXPECT_EQ(req.numEdges(), 3);
    EXPECT_TRUE(req.allPortsLive());

    req.setInputLive(1, false);
    EXPECT_FALSE(req.inputLive(1));
    EXPECT_FALSE(req.allPortsLive());
    EXPECT_FALSE(req.has(1, 2));
    EXPECT_FALSE(req.has(1, 3));
    EXPECT_TRUE(req.has(0, 2));
    EXPECT_EQ(req.numEdges(), 1);
    EXPECT_FALSE(wordset::testBit(req.rowMask(1), 2));
    EXPECT_FALSE(wordset::testBit(req.colMask(2), 1));
    EXPECT_TRUE(wordset::testBit(req.colMask(2), 0));

    req.setInputLive(1, true);
    EXPECT_TRUE(req.allPortsLive());
    EXPECT_TRUE(req.has(1, 2));
    EXPECT_EQ(req.numEdges(), 3);
    EXPECT_TRUE(wordset::testBit(req.rowMask(1), 2));
}

TEST(RequestMatrixLiveness, DeadOutputHidesColumn)
{
    RequestMatrix req(4);
    req.set(0, 1, true);
    req.set(2, 1, true);
    req.set(2, 3, true);

    req.setOutputLive(1, false);
    EXPECT_FALSE(req.outputLive(1));
    EXPECT_FALSE(req.has(0, 1));
    EXPECT_FALSE(req.has(2, 1));
    EXPECT_TRUE(req.has(2, 3));
    EXPECT_EQ(req.numEdges(), 1);
    EXPECT_FALSE(wordset::testBit(req.rowMask(0), 1));
    EXPECT_FALSE(wordset::testBit(req.rowMask(2), 1));

    req.setOutputLive(1, true);
    EXPECT_EQ(req.numEdges(), 3);
    EXPECT_TRUE(wordset::testBit(req.colMask(1), 0));
    EXPECT_TRUE(wordset::testBit(req.colMask(1), 2));
}

TEST(RequestMatrixLiveness, MutationsWhileDeadStayHidden)
{
    // set() on a dead row must keep the edge hidden and re-expose
    // whatever request survives at revival.
    RequestMatrix req(4);
    req.set(2, 0, true);
    req.set(2, 2, true);
    req.setInputLive(2, false);

    req.set(2, 1, true);     // new edge born hidden
    req.set(2, 0, false);    // lowered and raised again, still hidden
    req.set(2, 0, true);
    req.set(2, 2, false);    // lowered while dead
    req.set(2, 3, true);
    req.set(2, 3, false);    // born and killed while dead
    EXPECT_EQ(req.numEdges(), 0);
    EXPECT_FALSE(req.has(2, 0));
    EXPECT_FALSE(req.has(2, 1));

    req.setInputLive(2, true);
    EXPECT_EQ(req.numEdges(), 2);
    EXPECT_TRUE(req.has(2, 0));
    EXPECT_TRUE(req.has(2, 1));
    EXPECT_FALSE(req.has(2, 2));
    EXPECT_FALSE(req.has(2, 3));
}

TEST(RequestMatrixLiveness, RevivalExposesOnlyRequestsToLivePorts)
{
    // Three mask words per row: a request whose other end is still dead
    // stays hidden when its input revives.
    RequestMatrix req(130);
    for (PortId j : {5, 100, 129})
        req.set(3, j, true);
    req.set(7, 100, true);
    req.setInputLive(3, false);
    req.setOutputLive(100, false);
    req.setInputLive(3, true);
    EXPECT_TRUE(req.has(3, 5) && req.has(3, 129));
    EXPECT_FALSE(req.has(3, 100));
    EXPECT_TRUE(wordset::testBit(req.colMask(129), 3));
    EXPECT_EQ(req.numEdges(), 2);

    req.setOutputLive(100, true);
    EXPECT_TRUE(req.has(3, 100) && req.has(7, 100));
    EXPECT_TRUE(wordset::testBit(req.rowMask(7), 100));
    EXPECT_EQ(req.numEdges(), 4);
}

TEST(RequestMatrixLiveness, IdempotentAndSurvivesClear)
{
    RequestMatrix req(3);
    req.set(0, 0, true);
    req.setInputLive(0, false);
    req.setInputLive(0, false);  // idempotent
    EXPECT_EQ(req.numEdges(), 0);

    req.clear();
    EXPECT_EQ(req.numEdges(), 0);
    EXPECT_FALSE(req.inputLive(0));  // liveness survives clear()
    req.set(0, 1, true);
    req.set(1, 1, true);
    EXPECT_EQ(req.numEdges(), 1);  // dead input's new request hidden

    req.setInputLive(0, true);
    req.setInputLive(0, true);  // idempotent
    EXPECT_EQ(req.numEdges(), 2);
}

TEST(RequestMatrixDirty, EdgeTransitionsMarkRowsAndCols)
{
    RequestMatrix req(6);
    req.clearDirty();
    const uint64_t e0 = req.epoch();
    EXPECT_FALSE(req.anyDirty());

    req.set(2, 4, true);  // edge born
    EXPECT_TRUE(req.rowDirty(2));
    EXPECT_TRUE(req.colDirty(4));
    EXPECT_FALSE(req.rowDirty(1));
    EXPECT_FALSE(req.colDirty(3));
    EXPECT_GT(req.epoch(), e0);

    req.clearDirty();
    EXPECT_FALSE(req.anyDirty());
    const uint64_t e1 = req.epoch();
    EXPECT_EQ(req.epoch(), e1);  // clearDirty leaves the epoch alone

    // Raising a raised request (or lowering a lowered one) changes no
    // visible edge.
    req.set(2, 4, true);
    req.set(3, 1, false);
    EXPECT_FALSE(req.anyDirty());
    EXPECT_EQ(req.epoch(), e1);

    req.set(2, 4, false);  // edge dies
    EXPECT_TRUE(req.rowDirty(2));
    EXPECT_TRUE(req.colDirty(4));
    EXPECT_GT(req.epoch(), e1);
}

TEST(RequestMatrixDirty, ClearLinesMarkEveryAffectedEdge)
{
    RequestMatrix req(5);
    req.set(1, 0, true);
    req.set(1, 3, true);
    req.set(4, 3, true);
    req.clearDirty();

    req.clearRow(1);
    EXPECT_TRUE(req.rowDirty(1));
    EXPECT_TRUE(req.colDirty(0));
    EXPECT_TRUE(req.colDirty(3));
    EXPECT_FALSE(req.rowDirty(4));

    req.clearDirty();
    req.clearColumn(3);
    EXPECT_TRUE(req.rowDirty(4));
    EXPECT_TRUE(req.colDirty(3));
    EXPECT_FALSE(req.rowDirty(1));  // row 1 had nothing left in col 3

    // Clearing empty lines changes nothing.
    req.clearDirty();
    const uint64_t e = req.epoch();
    req.clearRow(1);
    req.clearColumn(3);
    EXPECT_FALSE(req.anyDirty());
    EXPECT_EQ(req.epoch(), e);
}

TEST(RequestMatrixDirty, LivenessFlipsMarkHiddenAndRevivedEdges)
{
    RequestMatrix req(4);
    req.set(2, 1, true);
    req.set(2, 3, true);
    req.clearDirty();
    const uint64_t e0 = req.epoch();

    // Killing the input hides two visible edges -> both marked.
    req.setInputLive(2, false);
    EXPECT_TRUE(req.rowDirty(2));
    EXPECT_TRUE(req.colDirty(1));
    EXPECT_TRUE(req.colDirty(3));
    EXPECT_GT(req.epoch(), e0);

    // Mutations while dead stay invisible and mark nothing new.
    req.clearDirty();
    req.set(2, 0, true);  // born hidden
    EXPECT_FALSE(req.anyDirty());

    // Revival re-exposes the surviving requests -> marked again,
    // including the one that appeared while the port was dead.
    req.setInputLive(2, true);
    EXPECT_TRUE(req.rowDirty(2));
    EXPECT_TRUE(req.colDirty(0));
    EXPECT_TRUE(req.colDirty(1));
    EXPECT_TRUE(req.colDirty(3));

    // Same via the output side.
    req.clearDirty();
    req.setOutputLive(1, false);
    EXPECT_TRUE(req.rowDirty(2));
    EXPECT_TRUE(req.colDirty(1));
    req.clearDirty();
    req.setOutputLive(1, true);
    EXPECT_TRUE(req.colDirty(1));
}

TEST(RequestMatrixDirty, CopyConservativelyMarksAllAndBumpsEpoch)
{
    RequestMatrix a(4);
    a.set(0, 0, true);
    RequestMatrix b(4);
    b.set(3, 3, true);
    // Drive both epochs forward so max() matters.
    for (int k = 0; k < 5; ++k) {
        b.set(1, 1, true);
        b.set(1, 1, false);
    }
    a.clearDirty();
    b.clearDirty();
    const uint64_t ea = a.epoch();
    const uint64_t eb = b.epoch();

    b = a;
    // Every row/column dirty, epoch strictly past both operands: a warm
    // consumer remembering either epoch can never mistake the copy for
    // an unchanged matrix.
    for (PortId p = 0; p < 4; ++p) {
        EXPECT_TRUE(b.rowDirty(p));
        EXPECT_TRUE(b.colDirty(p));
    }
    EXPECT_GT(b.epoch(), ea);
    EXPECT_GT(b.epoch(), eb);

    RequestMatrix c(a);  // copy-construction likewise
    for (PortId p = 0; p < 4; ++p) {
        EXPECT_TRUE(c.rowDirty(p));
        EXPECT_TRUE(c.colDirty(p));
    }
    EXPECT_GT(c.epoch(), a.epoch());
}

TEST(RequestMatrixLiveness, ClearLinesOnMaskedMatrix)
{
    RequestMatrix req(4);
    for (PortId i = 0; i < 4; ++i)
        for (PortId j = 0; j < 4; ++j)
            req.set(i, j, true);
    req.setInputLive(1, false);
    EXPECT_EQ(req.numEdges(), 12);

    req.clearRow(1);  // clearing a dead row drops its hidden requests
    EXPECT_EQ(req.numEdges(), 12);
    req.setInputLive(1, true);  // nothing left to re-expose
    EXPECT_EQ(req.numEdges(), 12);

    req.setOutputLive(2, false);
    EXPECT_EQ(req.numEdges(), 9);
    req.clearColumn(2);
    req.setOutputLive(2, true);
    EXPECT_EQ(req.numEdges(), 9);
}

}  // namespace
}  // namespace an2
