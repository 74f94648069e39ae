/**
 * @file
 * Scoped-tracing runtime tests: the disabled path records nothing,
 * nesting depths are tracked per thread, spans from spawned threads
 * land in distinct per-thread buffers, and the simulated track keeps
 * run registration separate from host spans.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"

namespace anaheim::obs {
namespace {

/** Save/restore the global tracing flag and empty the collector so
 *  tests don't leak spans into each other. */
class TraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        wasEnabled_ = tracingEnabled();
        TraceCollector::global().clear();
    }

    void
    TearDown() override
    {
        setTracingEnabled(wasEnabled_);
        TraceCollector::global().clear();
    }

    bool wasEnabled_ = false;
};

TEST_F(TraceTest, DisabledRecordsNothing)
{
    setTracingEnabled(false);
    {
        OBS_SPAN("test/outer");
        OBS_SPAN("test/inner");
    }
    EXPECT_TRUE(TraceCollector::global().hostSpans().empty());
}

TEST_F(TraceTest, NestedSpansRecordDepths)
{
    setTracingEnabled(true);
    {
        OBS_SPAN("test/outer");
        {
            OBS_SPAN("test/middle");
            OBS_SPAN("test/inner");
        }
        // A sibling after the nested pair reuses depth 1.
        OBS_SPAN("test/sibling");
    }
    setTracingEnabled(false);

    const auto spans = TraceCollector::global().hostSpans();
    ASSERT_EQ(spans.size(), 4u);

    auto depthOf = [&](const std::string &name) -> int {
        for (const HostSpan &span : spans)
            if (name == span.name)
                return static_cast<int>(span.depth);
        return -1;
    };
    EXPECT_EQ(depthOf("test/outer"), 0);
    EXPECT_EQ(depthOf("test/middle"), 1);
    EXPECT_EQ(depthOf("test/inner"), 2);
    EXPECT_EQ(depthOf("test/sibling"), 1);

    for (const HostSpan &span : spans) {
        EXPECT_GE(span.durUs, 0.0) << span.name;
        EXPECT_GE(span.startUs, 0.0) << span.name;
    }
}

TEST_F(TraceTest, ChildSpanNestsInsideParentInterval)
{
    setTracingEnabled(true);
    {
        OBS_SPAN("test/parent");
        OBS_SPAN("test/child");
    }
    setTracingEnabled(false);

    const auto spans = TraceCollector::global().hostSpans();
    ASSERT_EQ(spans.size(), 2u);
    const HostSpan *parent = nullptr;
    const HostSpan *child = nullptr;
    for (const HostSpan &span : spans) {
        if (std::string(span.name) == "test/parent")
            parent = &span;
        else
            child = &span;
    }
    ASSERT_NE(parent, nullptr);
    ASSERT_NE(child, nullptr);
    EXPECT_LE(parent->startUs, child->startUs);
    EXPECT_GE(parent->startUs + parent->durUs,
              child->startUs + child->durUs);
}

TEST_F(TraceTest, SpawnedThreadsGetDistinctTids)
{
    setTracingEnabled(true);
    constexpr int kThreads = 4;
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([] { OBS_SPAN("test/worker"); });
    }
    for (auto &thread : threads)
        thread.join();
    setTracingEnabled(false);

    const auto spans = TraceCollector::global().hostSpans();
    std::vector<uint32_t> tids;
    for (const HostSpan &span : spans) {
        if (std::string(span.name) == "test/worker")
            tids.push_back(span.tid);
    }
    ASSERT_EQ(tids.size(), static_cast<size_t>(kThreads));
    // Every worker span came from its own buffer: all tids distinct.
    std::sort(tids.begin(), tids.end());
    EXPECT_EQ(std::unique(tids.begin(), tids.end()), tids.end());
    // Worker spans open at depth 0 of their own thread.
    for (const HostSpan &span : spans) {
        if (std::string(span.name) == "test/worker")
            EXPECT_EQ(span.depth, 0u);
    }
}

TEST_F(TraceTest, DisableMidSpanStillUnwindsDepth)
{
    setTracingEnabled(true);
    {
        OBS_SPAN("test/outer");
        setTracingEnabled(false);
    } // outer closes while disabled; depth must unwind
    setTracingEnabled(true);
    {
        OBS_SPAN("test/after");
    }
    setTracingEnabled(false);

    const auto spans = TraceCollector::global().hostSpans();
    for (const HostSpan &span : spans) {
        if (std::string(span.name) == "test/after")
            EXPECT_EQ(span.depth, 0u);
    }
}

TEST_F(TraceTest, SimRunsAndTimelinesRoundTrip)
{
    TraceCollector &collector = TraceCollector::global();
    const uint32_t first = collector.beginRun("Boot");
    const uint32_t second = collector.beginRun("HELR");
    EXPECT_EQ(second, first + 1);

    GanttEntry modUp;
    modUp.phase = "ModUp";
    modUp.device = "GPU";
    modUp.cls = KernelClass::NttIntt;
    modUp.startNs = 1500.0;
    modUp.endNs = 3500.0;
    modUp.energyPj = 42.0;
    modUp.bound = BoundBy::Compute;
    GanttEntry scrub;
    scrub.phase = "Scrub";
    scrub.device = "DRAM";
    scrub.startNs = 3500.0;
    scrub.endNs = 4000.0;
    collector.recordTimeline(second, {modUp, scrub});

    const auto names = collector.runNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[first], "Boot");
    EXPECT_EQ(names[second], "HELR");
    const auto timeline = collector.simTimeline();
    ASSERT_EQ(timeline.size(), 2u);
    EXPECT_EQ(timeline[0].first, second);
    EXPECT_EQ(timeline[0].second.device, "GPU");
    EXPECT_EQ(timeline[0].second.cls, KernelClass::NttIntt);
    EXPECT_DOUBLE_EQ(timeline[0].second.endNs, 3500.0);
    EXPECT_DOUBLE_EQ(timeline[0].second.energyPj, 42.0);
    EXPECT_EQ(timeline[1].second.phase, "Scrub");
    EXPECT_EQ(breakdownCategory(timeline[0].second), "(I)NTT");
    EXPECT_EQ(breakdownCategory(timeline[1].second), "Scrub");

    collector.clear();
    EXPECT_TRUE(collector.simTimeline().empty());
    EXPECT_TRUE(collector.runNames().empty());
}

} // namespace
} // namespace anaheim::obs
