/**
 * @file
 * Trace and metrics exporters.
 *
 * Chrome trace-event / Perfetto JSON: one document merging the host
 * span tree (pid 1, one tid per traced thread) with every recorded
 * simulated run (pid 1000+run, one tid per lane — GPU, PIM, one per
 * maintenance phase, and the serve scheduler's Preempt/Shed/Alert),
 * one "X" event per recorded `GanttEntry`. Open the file in
 * https://ui.perfetto.dev or chrome://tracing. Timestamps are
 * microseconds ("X" complete events); process/thread names ride "M"
 * metadata events.
 *
 * Metrics: the registry snapshot as a flat JSON document (with the
 * same self-describing header block the bench JSON reports carry) or
 * as name,kind,value CSV.
 */

#ifndef ANAHEIM_OBS_EXPORT_H
#define ANAHEIM_OBS_EXPORT_H

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace anaheim::obs {

/** The Chrome trace document for the collector's current contents. */
std::string chromeTraceJson(
    const TraceCollector &collector = TraceCollector::global());

/** Write chromeTraceJson() to `path`; false on I/O failure (with a
 *  warning) or when `path` is empty (silently). */
bool writeChromeTrace(
    const std::string &path,
    const TraceCollector &collector = TraceCollector::global());

/** The metrics document for a registry snapshot; when `series` is
 *  non-empty a "timeseries" section follows the flat metrics array
 *  (one entry per series: name, tick, per-window
 *  count/sum/min/max/p50/p99/rate points). */
std::string metricsJson(
    const MetricsSnapshot &snapshot,
    const std::string &source = "anaheim",
    const std::vector<SeriesSnapshot> &series = {});

/** Write the global registry's snapshot to `path`: CSV when the path
 *  ends in ".csv", JSON otherwise (with the timeseries section when
 *  any series is registered). Empty path: no-op, returns false. */
bool writeMetrics(
    const std::string &path,
    MetricsRegistry &registry = MetricsRegistry::global());

/** name,kind,value,count,sum CSV for a snapshot. */
std::string metricsCsv(const MetricsSnapshot &snapshot);

/**
 * Prometheus text exposition (version 0.0.4) of a metrics snapshot
 * plus the registered time series: counters/gauges as flat samples,
 * histograms as cumulative `_bucket{le=...}` + `_sum`/`_count`
 * families, and every series' most recent window as
 * `anaheim_series_{rate,p50,p99,count,mean}{series="<name>"}` gauges —
 * so a finished (or scraped) run diffs with standard PromQL tooling.
 * Metric names are sanitized ([a-zA-Z0-9_], `anaheim_` prefix).
 */
std::string prometheusText(
    const MetricsSnapshot &snapshot,
    const std::vector<SeriesSnapshot> &series = {});

/** Write prometheusText() of the global registries to `path`; false on
 *  I/O failure (with a warning) or when `path` is empty (silently). */
bool writePrometheus(
    const std::string &path,
    MetricsRegistry &registry = MetricsRegistry::global(),
    TimeSeriesRegistry &seriesRegistry = TimeSeriesRegistry::global());

/** JSON string escaping shared by the exporters. */
std::string jsonEscape(std::string_view value);

/** Number formatting shared by the exporters and configSummary
 *  ("%.10g"). */
std::string formatDouble(double value);

/** Self-describing header fields stamped into every export: schema
 *  version, git SHA, build type, resolved thread count. */
std::vector<std::pair<std::string, std::string>> exportHeader();

} // namespace anaheim::obs

#endif // ANAHEIM_OBS_EXPORT_H
