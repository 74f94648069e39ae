/**
 * @file
 * Per-kernel attribution over a RunResult: the paper's Fig. 8/9-style
 * breakdown (kernel class x GPU-vs-PIM x compute-vs-bandwidth-bound)
 * computed from `RunResult::timeline` in one place, replacing the
 * per-bench printf breakdowns. Also the glue that publishes a run's
 * counters into the metrics registry.
 */

#ifndef ANAHEIM_OBS_REPORT_H
#define ANAHEIM_OBS_REPORT_H

#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "anaheim/framework.h"
#include "obs/metrics.h"

namespace anaheim::obs {

/** One (category, execution-mode) cell of the attribution table. */
struct AttributionCell {
    double ns = 0.0;
    double energyPj = 0.0;
    uint64_t kernels = 0;
};

/**
 * Attribution of a run's time/energy. Rows are the paper's breakdown
 * categories — the four kernel classes for GPU work, "PIM" for
 * offloaded segments, and one row per maintenance phase (Scrub /
 * Checkpoint / Rollback / Verify). Columns split each row by what
 * bounded the time.
 */
struct AttributionReport {
    /** Fixed column order: GPU-compute, GPU-bandwidth, PIM, Other. */
    static const std::vector<std::string> &modes();

    /** rows[category][mode] — absent cells mean zero. */
    std::map<std::string, std::map<std::string, AttributionCell>> rows;
    double totalNs = 0.0;
    double totalEnergyPj = 0.0;

    /** Per-category time totals. Same keys as `timeNsByCategory` and
     *  the same values up to summation-order rounding: GPU categories
     *  are summed per mode first, and each entry contributes
     *  `endNs - startNs` rather than the charged duration. */
    std::map<std::string, double> categoryTotalsNs() const;
};

/** Execution-mode column of one timeline entry. */
std::string attributionMode(const GanttEntry &entry);

/** Build the attribution table from a run's timeline. */
AttributionReport buildAttribution(const RunResult &result);

/** Print the table (category rows x mode columns, ms and % shares). */
void printAttribution(const RunResult &result, std::FILE *out = stdout);

/**
 * Publish a run's statistics into `registry`: every ResilienceStats
 * counter under "resilience." and run totals as gauges. Counters
 * accumulate across runs; gauges are namespaced per run —
 * "run.<id>.total_ns" etc., mirroring the per-run Perfetto process
 * groups — so interleaved runs don't clobber each other, with a
 * "run.last.*" alias always holding the most recently published run.
 */
void publishRunMetrics(const RunResult &result, uint32_t runId,
                       MetricsRegistry &registry = MetricsRegistry::global());

/** Convenience overload without a run id: publishes the counters and
 *  the "run.last.*" gauges only. */
void publishRunMetrics(const RunResult &result,
                       MetricsRegistry &registry = MetricsRegistry::global());

/**
 * End-of-run availability report: unrecovered-corruption verdict,
 * healthy-bank capacity left after quarantine, and the escalation
 * counters (retries / rollbacks / migrations / per-cause GPU
 * fallbacks).
 */
void printAvailability(const RunResult &result, std::FILE *out = stdout);

/**
 * Flat key/value description of a resolved AnaheimConfig (gpu/dram/pim
 * names and the load-bearing knobs), for self-describing bench JSON
 * headers and metrics dumps.
 */
std::vector<std::pair<std::string, std::string>> configSummary(
    const AnaheimConfig &config);

} // namespace anaheim::obs

#endif // ANAHEIM_OBS_REPORT_H
