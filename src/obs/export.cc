#include "export.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "common/logging.h"
#include "common/parallel.h"

namespace anaheim::obs {

namespace {

/** Format version of every exported document (bench JSON, metrics,
 *  trace "otherData"); bump on breaking layout changes. */
constexpr int kSchemaVersion = 1;

const char *
gitSha()
{
#ifdef ANAHEIM_GIT_SHA
    return ANAHEIM_GIT_SHA;
#else
    return "unknown";
#endif
}

const char *
buildType()
{
#ifdef ANAHEIM_BUILD_TYPE
    return ANAHEIM_BUILD_TYPE;
#else
    return "unknown";
#endif
}

void
appendEvent(std::ostringstream &out, bool &first, const std::string &body)
{
    out << (first ? "\n    {" : ",\n    {") << body << "}";
    first = false;
}

std::string
metadataEvent(const char *name, uint64_t pid, uint64_t tid,
              const std::string &value)
{
    std::ostringstream oss;
    oss << "\"name\": \"" << name << "\", \"ph\": \"M\", \"pid\": " << pid
        << ", \"tid\": " << tid << ", \"args\": {\"name\": \""
        << jsonEscape(value) << "\"}";
    return oss.str();
}

} // namespace

std::string
formatDouble(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", value);
    return buf;
}

std::string
jsonEscape(std::string_view value)
{
    std::string out;
    out.reserve(value.size());
    for (char c : value) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::vector<std::pair<std::string, std::string>>
exportHeader()
{
    return {
        {"schema_version", std::to_string(kSchemaVersion)},
        {"git_sha", gitSha()},
        {"build_type", buildType()},
        {"threads", std::to_string(parallelThreadCount())},
    };
}

std::string
chromeTraceJson(const TraceCollector &collector)
{
    const std::vector<HostSpan> host = collector.hostSpans();
    const std::vector<std::pair<uint32_t, GanttEntry>> sim =
        collector.simTimeline();
    const std::vector<std::string> runs = collector.runNames();

    constexpr uint64_t kHostPid = 1;
    constexpr uint64_t kSimPidBase = 1000;

    std::ostringstream out;
    out << "{\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {";
    bool firstHeader = true;
    for (const auto &[key, value] : exportHeader()) {
        out << (firstHeader ? "" : ", ") << "\"" << key << "\": \""
            << jsonEscape(value) << "\"";
        firstHeader = false;
    }
    out << "},\n  \"traceEvents\": [";
    bool first = true;

    // --- Host process: one track per traced thread. ---
    if (!host.empty()) {
        appendEvent(out, first,
                    metadataEvent("process_name", kHostPid, 0,
                                  "host (wall clock)"));
        std::set<uint32_t> tids;
        for (const HostSpan &span : host)
            tids.insert(span.tid);
        for (uint32_t tid : tids) {
            appendEvent(out, first,
                        metadataEvent("thread_name", kHostPid, tid,
                                      tid == 0 ? "main"
                                               : "worker " +
                                                     std::to_string(tid)));
        }
        for (const HostSpan &span : host) {
            std::ostringstream body;
            body << "\"name\": \"" << jsonEscape(span.name)
                 << "\", \"cat\": \"host\", \"ph\": \"X\", \"ts\": "
                 << formatDouble(span.startUs)
                 << ", \"dur\": " << formatDouble(span.durUs)
                 << ", \"pid\": " << kHostPid
                 << ", \"tid\": " << span.tid
                 << ", \"args\": {\"depth\": " << span.depth << "}";
            appendEvent(out, first, body.str());
        }
    }

    // --- One process group per recorded simulated run. ---
    for (size_t run = 0; run < runs.size(); ++run) {
        appendEvent(out, first,
                    metadataEvent("process_name", kSimPidBase + run, 0,
                                  "sim: " + runs[run] + " #" +
                                      std::to_string(run)));
    }
    // Lane -> tid, per run, in first-seen order with GPU/PIM pinned
    // first so the viewer layout is stable.
    std::map<uint64_t, std::map<std::string, uint64_t>> laneTids;
    auto laneTid = [&](uint64_t pid, const std::string &lane) {
        auto &lanes = laneTids[pid];
        if (lanes.empty()) {
            lanes["GPU"] = 1;
            lanes["PIM"] = 2;
        }
        const auto it = lanes.find(lane);
        if (it != lanes.end())
            return it->second;
        const uint64_t tid = lanes.size() + 1;
        lanes.emplace(lane, tid);
        return tid;
    };
    for (const auto &[run, entry] : sim) {
        // Maintenance phases (DRAM passes, Verify priced on the GPU) get
        // their own lanes so recovery overhead is visible next to the
        // GPU/PIM streams; serve events already name their lane.
        const bool maintenance =
            entry.bound == BoundBy::None &&
            (entry.device == Lane::DRAM || entry.device == Lane::GPU);
        const std::string lane(maintenance ? entry.phase
                                           : laneName(entry.device));
        const uint64_t pid = kSimPidBase + run;
        const uint64_t tid = laneTid(pid, lane);
        std::ostringstream body;
        body << "\"name\": \"" << jsonEscape(entry.phase)
             << "\", \"cat\": \"" << jsonEscape(breakdownCategory(entry))
             << "\", \"ph\": \"X\", \"ts\": "
             << formatDouble(entry.startNs * 1e-3)
             << ", \"dur\": "
             << formatDouble((entry.endNs - entry.startNs) * 1e-3)
             << ", \"pid\": " << pid << ", \"tid\": " << tid
             << ", \"args\": {\"lane\": \"" << jsonEscape(lane)
             << "\", \"energy_pj\": " << formatDouble(entry.energyPj)
             << "}";
        appendEvent(out, first, body.str());
    }
    for (const auto &[pid, lanes] : laneTids) {
        for (const auto &[lane, tid] : lanes) {
            appendEvent(out, first,
                        metadataEvent("thread_name", pid, tid, lane));
        }
    }

    out << "\n  ]\n}\n";
    return out.str();
}

bool
writeChromeTrace(const std::string &path, const TraceCollector &collector)
{
    if (path.empty())
        return false;
    std::ofstream file(path);
    if (!file) {
        ANAHEIM_WARN("cannot write trace to ", path);
        return false;
    }
    file << chromeTraceJson(collector);
    return static_cast<bool>(file);
}

std::string
metricsJson(const MetricsSnapshot &snapshot, const std::string &source,
            const std::vector<SeriesSnapshot> &series)
{
    std::ostringstream out;
    out << "{\n  \"source\": \"" << jsonEscape(source) << "\"";
    for (const auto &[key, value] : exportHeader())
        out << ",\n  \"" << key << "\": \"" << jsonEscape(value) << "\"";
    out << ",\n  \"metrics\": [";
    bool first = true;
    for (const MetricsSnapshot::Entry &entry : snapshot.entries) {
        out << (first ? "\n    {" : ",\n    {") << "\"name\": \""
            << jsonEscape(entry.name) << "\", \"kind\": \"" << entry.kind
            << "\", \"value\": " << formatDouble(entry.value);
        if (entry.kind == "histogram") {
            out << ", \"count\": " << entry.count
                << ", \"sum\": " << formatDouble(entry.sum)
                << ", \"buckets\": [";
            for (size_t i = 0; i < entry.buckets.size(); ++i) {
                const auto &[bound, count] = entry.buckets[i];
                out << (i == 0 ? "" : ", ") << "{\"le\": ";
                if (std::isinf(bound))
                    out << "\"inf\"";
                else
                    out << formatDouble(bound);
                out << ", \"count\": " << count << "}";
            }
            out << "]";
        }
        out << "}";
        first = false;
    }
    out << "\n  ]";
    if (!series.empty()) {
        out << ",\n  \"timeseries\": [";
        bool firstSeries = true;
        for (const SeriesSnapshot &snap : series) {
            out << (firstSeries ? "\n    {" : ",\n    {")
                << "\"name\": \"" << jsonEscape(snap.name)
                << "\", \"tick_ns\": " << formatDouble(snap.tickNs)
                << ", \"dropped_late\": " << snap.droppedLate
                << ", \"evicted_windows\": " << snap.evictedWindows
                << ", \"points\": [";
            for (size_t i = 0; i < snap.points.size(); ++i) {
                const SeriesPoint &p = snap.points[i];
                out << (i == 0 ? "\n      {" : ",\n      {")
                    << "\"start_ns\": " << formatDouble(p.startNs)
                    << ", \"count\": " << p.count
                    << ", \"sum\": " << formatDouble(p.sum)
                    << ", \"min\": " << formatDouble(p.min)
                    << ", \"max\": " << formatDouble(p.max)
                    << ", \"p50\": " << formatDouble(p.p50)
                    << ", \"p99\": " << formatDouble(p.p99)
                    << ", \"rate_per_s\": "
                    << formatDouble(p.ratePerSec()) << "}";
            }
            out << (snap.points.empty() ? "]" : "\n    ]") << "}";
            firstSeries = false;
        }
        out << "\n  ]";
    }
    out << "\n}\n";
    return out.str();
}

std::string
metricsCsv(const MetricsSnapshot &snapshot)
{
    std::ostringstream out;
    out << "name,kind,value,count,sum\n";
    for (const MetricsSnapshot::Entry &entry : snapshot.entries) {
        out << entry.name << "," << entry.kind << ","
            << formatDouble(entry.value) << "," << entry.count << ","
            << formatDouble(entry.sum) << "\n";
    }
    return out.str();
}

bool
writeMetrics(const std::string &path, MetricsRegistry &registry)
{
    if (path.empty())
        return false;
    std::ofstream file(path);
    if (!file) {
        ANAHEIM_WARN("cannot write metrics to ", path);
        return false;
    }
    const MetricsSnapshot snapshot = registry.snapshot();
    const bool csv =
        path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
    if (csv) {
        file << metricsCsv(snapshot);
    } else {
        file << metricsJson(snapshot, "anaheim",
                            TimeSeriesRegistry::global().snapshotAll());
    }
    return static_cast<bool>(file);
}

namespace {

/** Prometheus metric name: `anaheim_` prefix, [a-zA-Z0-9_] body. */
std::string
promName(const std::string &name)
{
    std::string out = "anaheim_";
    out.reserve(out.size() + name.size());
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        out.push_back(ok ? c : '_');
    }
    return out;
}

/** Prometheus label value: escape backslash, quote and newline. */
std::string
promLabelValue(const std::string &value)
{
    std::string out;
    out.reserve(value.size());
    for (const char c : value) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '"')
            out += "\\\"";
        else if (c == '\n')
            out += "\\n";
        else
            out.push_back(c);
    }
    return out;
}

std::string
promNumber(double value)
{
    if (std::isinf(value))
        return value > 0 ? "+Inf" : "-Inf";
    return formatDouble(value);
}

} // namespace

std::string
prometheusText(const MetricsSnapshot &snapshot,
               const std::vector<SeriesSnapshot> &series)
{
    std::ostringstream out;
    for (const MetricsSnapshot::Entry &entry : snapshot.entries) {
        const std::string name = promName(entry.name);
        if (entry.kind == "counter") {
            out << "# TYPE " << name << " counter\n"
                << name << " " << entry.count << "\n";
        } else if (entry.kind == "gauge") {
            out << "# TYPE " << name << " gauge\n"
                << name << " " << promNumber(entry.value) << "\n";
        } else if (entry.kind == "histogram") {
            out << "# TYPE " << name << " histogram\n";
            uint64_t cumulative = 0;
            for (const auto &[bound, count] : entry.buckets) {
                cumulative += count;
                out << name << "_bucket{le=\"" << promNumber(bound)
                    << "\"} " << cumulative << "\n";
            }
            out << name << "_sum " << promNumber(entry.sum) << "\n"
                << name << "_count " << entry.count << "\n";
        }
    }
    // Each series exposes its most recent window as one sample in five
    // gauge families, so a scrape (or a finished run's dump) reads as
    // current state. All samples of a family stay contiguous under one
    // TYPE line, as the exposition format requires.
    const auto statOf = [](const SeriesPoint &p, size_t stat) {
        switch (stat) {
        case 0: return p.ratePerSec();
        case 1: return p.p50;
        case 2: return p.p99;
        case 3: return static_cast<double>(p.count);
        default: return p.mean();
        }
    };
    const char *statNames[] = {"rate", "p50", "p99", "count", "mean"};
    for (size_t stat = 0; stat < 5; ++stat) {
        bool typed = false;
        for (const SeriesSnapshot &snap : series) {
            if (snap.points.empty())
                continue;
            if (!typed) {
                out << "# TYPE anaheim_series_" << statNames[stat]
                    << " gauge\n";
                typed = true;
            }
            out << "anaheim_series_" << statNames[stat] << "{series=\""
                << promLabelValue(snap.name) << "\"} "
                << promNumber(statOf(snap.points.back(), stat)) << "\n";
        }
    }
    return out.str();
}

bool
writePrometheus(const std::string &path, MetricsRegistry &registry,
                TimeSeriesRegistry &seriesRegistry)
{
    if (path.empty())
        return false;
    std::ofstream file(path);
    if (!file) {
        ANAHEIM_WARN("cannot write prometheus text to ", path);
        return false;
    }
    file << prometheusText(registry.snapshot(),
                           seriesRegistry.snapshotAll());
    return static_cast<bool>(file);
}

} // namespace anaheim::obs
