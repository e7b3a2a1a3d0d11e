// Tests for the metrics collector (an2/sim/metrics.h).
#include "an2/sim/metrics.h"

#include <gtest/gtest.h>

namespace an2 {
namespace {

Cell
cellAt(FlowId flow, PortId in, PortId out, SlotTime inject)
{
    Cell c;
    c.flow = flow;
    c.input = in;
    c.output = out;
    c.inject_slot = inject;
    return c;
}

TEST(MetricsTest, WarmupCellsExcluded)
{
    MetricsCollector m(100);
    Cell early = cellAt(0, 0, 1, 50);
    Cell late = cellAt(0, 0, 1, 150);
    m.noteInjected(early);
    m.noteInjected(late);
    m.noteDelivered(early, 60);
    m.noteDelivered(late, 155);
    EXPECT_EQ(m.injected(), 1);
    EXPECT_EQ(m.delivered(), 1);
    EXPECT_DOUBLE_EQ(m.meanDelay(), 5.0);
}

TEST(MetricsTest, DelayStatsAndQuantiles)
{
    MetricsCollector m(0);
    for (int d = 0; d < 100; ++d) {
        Cell c = cellAt(0, 0, 0, 0);
        m.noteInjected(c);
        m.noteDelivered(c, d);
    }
    EXPECT_NEAR(m.meanDelay(), 49.5, 1e-9);
    EXPECT_NEAR(m.delayQuantile(0.99), 99.0, 1.5);
    EXPECT_EQ(m.delayStats().count(), 100);
}

TEST(MetricsTest, DeliveryCountsFilterOnDeliverySlot)
{
    // Delivered counts every cell delivered at or after warmup, whatever
    // its injection slot; delay statistics take only cells injected at
    // or after warmup.
    MetricsCollector m(10);
    m.noteDelivered(cellAt(7, 1, 2, 2), 5);    // before warmup: neither
    m.noteDelivered(cellAt(7, 1, 2, 4), 12);   // backlog: counted only
    m.noteDelivered(cellAt(8, 1, 3, 10), 13);  // both
    m.noteDelivered(cellAt(8, 1, 3, 11), 15);  // both
    EXPECT_EQ(m.delivered(), 3);
    EXPECT_EQ(m.injected(), 0);
    EXPECT_EQ(m.delayStats().count(), 2);
    EXPECT_DOUBLE_EQ(m.meanDelay(), 3.5);
}

TEST(MetricsTest, OccupancyPeakSticky)
{
    MetricsCollector m(0);
    m.noteOccupancy(3);
    m.noteOccupancy(10);
    m.noteOccupancy(4);
    EXPECT_EQ(m.maxOccupancy(), 10);
}

TEST(MetricsTest, NegativeDelayPanics)
{
    MetricsCollector m(0);
    Cell c = cellAt(0, 0, 0, 10);
    EXPECT_THROW(m.noteDelivered(c, 5), InternalError);
}

TEST(MetricsTest, NegativeWarmupRejected)
{
    EXPECT_THROW(MetricsCollector(-1), UsageError);
}

}  // namespace
}  // namespace an2
