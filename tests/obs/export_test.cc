/**
 * @file
 * Exporter and attribution tests over a real simulated run: the Chrome
 * trace document carries the host span, both device lanes and the
 * self-describing header, and one simulated event per timeline entry;
 * the attribution report's category totals reproduce
 * `RunResult::timeNsByCategory` on clean, recovery and degraded runs;
 * the timeline leaves execute() tiled
 * in clock order, also with scrub, checkpoints and fault rollbacks on;
 * metrics exports carry the header, their entries and the timeseries
 * fields. The schema itself is gated by scripts/validate_trace.py
 * (registered in ctest), not here.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "anaheim/framework.h"
#include "obs/export.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "trace/builders.h"

namespace anaheim::obs {
namespace {

RunResult
smallRun(AnaheimConfig config = AnaheimConfig::a100NearBank())
{
    OpSequence seq = buildHMult(TraceParams{});
    seq.name = "hmult";
    return AnaheimFramework(config).execute(seq);
}

/** Two HMults with scrub passes, checkpoints, checksum verifies and
 *  fault-driven rollbacks charged between the kernels. */
RunResult
recoveryRun()
{
    OpSequence seq = buildHMult(TraceParams{});
    seq.append(buildHMult(TraceParams{}));
    seq.name = "hmult2";
    AnaheimConfig config = AnaheimConfig::a100NearBank();
    config.resilience.ber = 1e-5;
    config.resilience.maxPimRetries = 0;
    config.resilience.retentionBerPerWindow = 1e-7;
    config.resilience.checksumEnabled = true;
    config.resilience.scrub.enabled = true;
    config.resilience.scrub.intervalNs = 50.0e3;
    config.resilience.checkpoint.enabled = true;
    config.resilience.checkpoint.intervalSegments = 8;
    config.resilience.checkpoint.maxRollbacks = 32;
    return AnaheimFramework(config).execute(seq);
}

/** Two HMults on a device with one permanently failed bank and health
 *  monitoring on: the bank is quarantined and the footprint migrates. */
RunResult
degradedRun()
{
    OpSequence seq = buildHMult(TraceParams{});
    seq.append(buildHMult(TraceParams{}));
    seq.name = "hmult2_degraded";
    AnaheimConfig config = AnaheimConfig::a100NearBank();
    ResilienceConfig &rc = config.resilience;
    rc.checksumEnabled = true;
    rc.checkpoint.enabled = true;
    rc.checkpoint.intervalSegments = 8;
    rc.checkpoint.maxRollbacks = 32;
    rc.health.enabled = true;
    rc.health.permanentThreshold = 2;
    rc.permanentBanks.push_back({2, 17});
    return AnaheimFramework(config).execute(seq);
}

class ExportTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        wasEnabled_ = tracingEnabled();
        setTracingEnabled(false);
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

/** Occurrences of `needle` in `text`. */
size_t
countOf(const std::string &text, const std::string &needle)
{
    size_t count = 0;
    for (size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + needle.size()))
        ++count;
    return count;
}

TEST_F(ExportTest, ChromeTraceValidatesAndParses)
{
    setTracingEnabled(true);
    {
        OBS_SPAN("test/export");
        const RunResult result = smallRun(); // records its timeline
        ASSERT_FALSE(result.timeline.empty());
    }
    setTracingEnabled(false);

    const std::string json = chromeTraceJson();
    EXPECT_NE(json.find("\"name\": \"test/export\", \"cat\": \"host\", "
                        "\"ph\": \"X\""),
              std::string::npos);
    // The simulated run contributes both execution lanes.
    EXPECT_NE(json.find("\"lane\": \"GPU\""), std::string::npos);
    EXPECT_NE(json.find("\"lane\": \"PIM\""), std::string::npos);
    // Header block rides "otherData".
    EXPECT_NE(json.find("\"otherData\": {\"schema_version\": \""),
              std::string::npos);
    EXPECT_NE(json.find("\"git_sha\": \""), std::string::npos);
}

TEST_F(ExportTest, ChromeTraceHasOneEventPerTimelineEntry)
{
    setTracingEnabled(true);
    const RunResult result = smallRun();
    setTracingEnabled(false);
    ASSERT_FALSE(result.timeline.empty());

    // Only simulated events carry "energy_pj"; they are exported in
    // timeline order at the entry's start, in microseconds.
    const std::string json = chromeTraceJson();
    ASSERT_EQ(countOf(json, "\"energy_pj\""), result.timeline.size());
    std::istringstream lines(json);
    std::string line;
    size_t i = 0;
    while (std::getline(lines, line)) {
        if (line.find("\"energy_pj\"") == std::string::npos)
            continue;
        const size_t ts = line.find("\"ts\": ") + 6;
        EXPECT_EQ(line.substr(ts, line.find(',', ts) - ts),
                  formatDouble(result.timeline[i].startNs * 1e-3))
            << "entry " << i;
        ++i;
    }
    EXPECT_EQ(i, result.timeline.size());
}

TEST_F(ExportTest, WriteAndValidateTraceFile)
{
    setTracingEnabled(true);
    const RunResult result = smallRun();
    setTracingEnabled(false);
    ASSERT_FALSE(result.timeline.empty());

    const std::string path =
        ::testing::TempDir() + "/anaheim_export_test_trace.json";
    ASSERT_TRUE(writeChromeTrace(path));
    std::ifstream file(path);
    std::ostringstream contents;
    contents << file.rdbuf();
    EXPECT_EQ(contents.str(), chromeTraceJson());
    std::remove(path.c_str());
}

TEST_F(ExportTest, AttributionMatchesTimeNsByCategory)
{
    // A clean run, and runs whose maintenance phases (Scrub /
    // Checkpoint / Rollback / Verify, then Quarantine / Migrate) go
    // through the per-run category fold as their own keys.
    struct Case {
        const char *name;
        RunResult result;
        std::vector<std::string> maintenance;
    };
    const Case cases[] = {
        {"clean", smallRun(), {}},
        {"recovery", recoveryRun(),
         {"Scrub", "Checkpoint", "Rollback", "Verify"}},
        {"degraded", degradedRun(), {"Verify", "Quarantine", "Migrate"}},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        const RunResult &result = c.result;
        const AttributionReport report = buildAttribution(result);
        const auto totals = report.categoryTotalsNs();
        for (const std::string &phase : c.maintenance)
            EXPECT_TRUE(result.timeNsByCategory.count(phase)) << phase;

        // Same keys, same totals (to rounding): the report re-derives
        // the category split from the timeline whose charges execute()
        // folded into timeNsByCategory.
        EXPECT_EQ(totals.size(), result.timeNsByCategory.size());
        for (const auto &[category, ns] : result.timeNsByCategory) {
            ASSERT_TRUE(totals.count(category)) << category;
            EXPECT_NEAR(totals.at(category), ns, 1e-6 * (1.0 + ns))
                << category;
        }
        EXPECT_NEAR(report.totalNs, result.totalNs,
                    1e-6 * (1.0 + result.totalNs));
        EXPECT_NEAR(report.totalEnergyPj, result.energyPj,
                    1e-6 * (1.0 + result.energyPj));
    }
}

TEST_F(ExportTest, AttributionReportShape)
{
    const RunResult result = smallRun();
    const AttributionReport report = buildAttribution(result);

    // HMult on the A100 near-bank config offloads element-wise work:
    // a PIM row and at least one GPU-mode cell must be populated.
    ASSERT_TRUE(report.rows.count("PIM"));
    EXPECT_GT(report.rows.at("PIM").at("PIM").ns, 0.0);
    double gpuNs = 0.0;
    for (const auto &[category, cells] : report.rows) {
        (void)category;
        for (const auto &[mode, cell] : cells) {
            if (mode == "GPU-compute" || mode == "GPU-bandwidth")
                gpuNs += cell.ns;
        }
    }
    EXPECT_GT(gpuNs, 0.0);

    // Pinned print format: header columns and the total row. The table
    // renders through one code path for every consumer, so this is the
    // regression surface.
    std::string text;
    {
        std::FILE *f = std::tmpfile();
        ASSERT_NE(f, nullptr);
        printAttribution(result, f);
        std::rewind(f);
        char buf[4096];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
            text.append(buf, n);
        std::fclose(f);
    }
    EXPECT_NE(text.find("category"), std::string::npos);
    EXPECT_NE(text.find("GPU-comp ms"), std::string::npos);
    EXPECT_NE(text.find("PIM ms"), std::string::npos);
    EXPECT_NE(text.find("total"), std::string::npos);
    EXPECT_NE(text.find("100.0%"), std::string::npos);
}

TEST_F(ExportTest, TimelineLeavesExecuteInCanonicalOrder)
{
    // Append order is clock order and nothing sorts the timeline: the
    // entries tile [0, totalNs] exactly, also with scrub passes,
    // checkpoints and fault-driven rollbacks charged between kernels.
    const RunResult result = recoveryRun();
    EXPECT_GT(result.resilience.scrubPasses, 0u);
    EXPECT_GT(result.resilience.checkpoints, 0u);
    EXPECT_GT(result.resilience.rollbacks, 0u);

    ASSERT_FALSE(result.timeline.empty());
    EXPECT_EQ(result.timeline.front().startNs, 0.0);
    for (size_t i = 0; i < result.timeline.size(); ++i) {
        const GanttEntry &entry = result.timeline[i];
        ASSERT_GE(entry.endNs, entry.startNs)
            << "entry " << i << " (" << entry.phase << ")";
        if (i > 0) {
            ASSERT_EQ(entry.startNs, result.timeline[i - 1].endNs)
                << "entry " << i << " (" << entry.phase << ")";
        }
    }
    EXPECT_EQ(result.timeline.back().endNs, result.totalNs);
}

TEST_F(ExportTest, MetricsJsonCarriesHeaderAndEntries)
{
    MetricsRegistry::global().counter("test.export.counter").add(3);
    MetricsRegistry::global().gauge("test.export.gauge").set(1.5);
    const std::string json =
        metricsJson(MetricsRegistry::global().snapshot(), "test");

    for (const char *key :
         {"schema_version", "git_sha", "build_type", "threads"})
        EXPECT_NE(json.find("\"" + std::string(key) + "\": \""),
                  std::string::npos)
            << key;
    const std::string counter =
        "{\"name\": \"test.export.counter\", \"kind\": \"counter\", "
        "\"value\": ";
    const size_t at = json.find(counter);
    ASSERT_NE(at, std::string::npos);
    EXPECT_GE(std::stod(json.substr(at + counter.size())), 3.0);
    EXPECT_NE(json.find("{\"name\": \"test.export.gauge\", \"kind\": "
                        "\"gauge\", \"value\": 1.5}"),
              std::string::npos);
}

TEST_F(ExportTest, MetricsJsonTimeseriesSectionValidates)
{
    TimeSeries series("test.export.ts", 1000.0, 8);
    series.observe(100.0, 4.0);
    series.observe(1500.0, 8.0);
    const std::string json =
        metricsJson(MetricsRegistry::global().snapshot(), "test",
                    {series.snapshot()});

    EXPECT_EQ(countOf(json, "\"tick_ns\""), 1u);
    EXPECT_NE(json.find("{\"name\": \"test.export.ts\", "
                        "\"tick_ns\": 1000, "),
              std::string::npos);
    // Two windows, in start order.
    EXPECT_EQ(countOf(json, "\"start_ns\""), 2u);
    const size_t first =
        json.find("{\"start_ns\": 0, \"count\": 1, \"sum\": 4, ");
    const size_t second =
        json.find("{\"start_ns\": 1000, \"count\": 1, \"sum\": 8, ");
    ASSERT_NE(first, std::string::npos);
    ASSERT_NE(second, std::string::npos);
    EXPECT_LT(first, second);
}

TEST_F(ExportTest, PrometheusTextExposesFamiliesContiguously)
{
    MetricsRegistry::global().counter("test.export.prom").add(7);
    TimeSeries series("test.export.prom_ts", 1000.0, 8);
    series.observe(500.0, 2.0);
    const std::string text =
        prometheusText(MetricsRegistry::global().snapshot(),
                       {series.snapshot()});

    EXPECT_NE(text.find("# TYPE anaheim_test_export_prom counter"),
              std::string::npos);
    EXPECT_NE(text.find("anaheim_test_export_prom 7"),
              std::string::npos);
    EXPECT_NE(text.find("anaheim_series_rate{series=\"test.export."
                        "prom_ts\"}"),
              std::string::npos);
    // Exposition format: every sample of a family must sit under that
    // family's single TYPE line — a sample line naming family F after
    // a TYPE line for a different family is a format violation.
    std::istringstream lines(text);
    std::string line, family;
    for (; std::getline(lines, line);) {
        if (line.rfind("# TYPE ", 0) == 0) {
            const size_t space = line.find(' ', 7);
            family = line.substr(7, space - 7);
            continue;
        }
        if (line.empty() || line[0] == '#')
            continue;
        const size_t nameEnd = line.find_first_of("{ ");
        ASSERT_NE(nameEnd, std::string::npos) << line;
        const std::string name = line.substr(0, nameEnd);
        EXPECT_TRUE(name == family ||
                    name.rfind(family + "_", 0) == 0)
            << "sample '" << name << "' outside its family '" << family
            << "'";
    }
}

TEST_F(ExportTest, MetricsCsvHasHeaderAndRows)
{
    MetricsRegistry::global().counter("test.export.csv").add();
    const std::string csv =
        metricsCsv(MetricsRegistry::global().snapshot());
    EXPECT_EQ(csv.rfind("name,kind,value,count,sum\n", 0), 0u);
    EXPECT_NE(csv.find("test.export.csv,counter,"), std::string::npos);
}

TEST_F(ExportTest, PublishRunMetricsExposesRunTotals)
{
    const RunResult result = smallRun();
    // execute() already published; check the gauges carry this run
    // under the run.last.* alias.
    const MetricsSnapshot snapshot = MetricsRegistry::global().snapshot();
    const MetricsSnapshot::Entry *total =
        snapshot.find("run.last.total_ns");
    ASSERT_NE(total, nullptr);
    EXPECT_DOUBLE_EQ(total->value, result.totalNs);
    const MetricsSnapshot::Entry *execs = snapshot.find("run.executions");
    ASSERT_NE(execs, nullptr);
    EXPECT_GE(execs->value, 1.0);
    for (const auto &[category, ns] : result.timeNsByCategory) {
        const MetricsSnapshot::Entry *entry =
            snapshot.find("run.last.time_ns." + category);
        ASSERT_NE(entry, nullptr) << category;
        EXPECT_DOUBLE_EQ(entry->value, ns) << category;
    }
}

TEST_F(ExportTest, PublishRunMetricsNamespacesGaugesByRunId)
{
    // Two interleaved runs published under distinct ids must not
    // clobber each other's gauges; run.last.* follows the later one.
    RunResult a;
    a.totalNs = 1111.0;
    RunResult b;
    b.totalNs = 2222.0;
    publishRunMetrics(a, 41u);
    publishRunMetrics(b, 42u);
    const MetricsSnapshot snapshot = MetricsRegistry::global().snapshot();
    const MetricsSnapshot::Entry *ga = snapshot.find("run.41.total_ns");
    ASSERT_NE(ga, nullptr);
    EXPECT_DOUBLE_EQ(ga->value, 1111.0);
    const MetricsSnapshot::Entry *gb = snapshot.find("run.42.total_ns");
    ASSERT_NE(gb, nullptr);
    EXPECT_DOUBLE_EQ(gb->value, 2222.0);
    const MetricsSnapshot::Entry *last =
        snapshot.find("run.last.total_ns");
    ASSERT_NE(last, nullptr);
    EXPECT_DOUBLE_EQ(last->value, 2222.0);
}

TEST_F(ExportTest, ConfigSummaryNamesTheArchitecturePoint)
{
    const auto kv = configSummary(AnaheimConfig::a100NearBank());
    auto value = [&](const std::string &key) -> std::string {
        for (const auto &[k, v] : kv)
            if (k == key)
                return v;
        return "<missing>";
    };
    EXPECT_EQ(value("gpu"), "A100 80GB");
    EXPECT_EQ(value("pim_enabled"), "true");
    EXPECT_EQ(value("pim_variant"), "near-bank");
    EXPECT_EQ(value("obs_trace"), "<missing>");
}

} // namespace
} // namespace anaheim::obs
