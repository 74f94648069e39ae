#include "harness.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <fstream>
#include <map>
#include <sstream>

#include <sys/resource.h>

namespace perfbench {

double
Samples::sum() const
{
    double s = 0.0;
    for (double v : values_)
        s += v;
    return s;
}

double
medianOf(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
Samples::median() const
{
    return medianOf(values_);
}

std::pair<double, double>
Samples::tail() const
{
    if (values_.empty())
        return {100.0, 0.0};
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const size_t n = sorted.size();
    if (n < 11)
        return {100.0, sorted.back()};
    // Nearest rank k (1-based) leaves n - k samples above it.
    const size_t k = n - 10;
    return {100.0 * static_cast<double>(k) / static_cast<double>(n),
            sorted[k - 1]};
}

Calibrator &
calibrator()
{
    static Calibrator instance;
    return instance;
}

void
Calibrator::probe()
{
    timedProbe();
}

double
Calibrator::timedProbe()
{
    const double t0 = nowS();
    uint64_t x = state_;
    const auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    std::vector<uint32_t> keys(4096);
    for (uint32_t &k : keys)
        k = static_cast<uint32_t>(next());
    std::sort(keys.begin(), keys.end());
    std::map<uint32_t, std::string> map;
    for (size_t i = 0; i < 512; ++i)
        map[keys[(i * 7919) % keys.size()]] = std::string(24 + i % 16, 'a');
    uint64_t acc = 0;
    for (const auto &[key, value] : map)
        acc += key + value.size();
    std::vector<uint64_t> buf(4096, 1);
    for (uint64_t k = 0; k < 16; ++k) {
        for (size_t i = 0; i < buf.size(); ++i) {
            acc += buf[i] * (i ^ k);
            buf[i] = acc >> 3;
        }
    }
    state_ = x + acc;
    lastProbeS_ = nowS();
    window_.push_back(lastProbeS_ - t0);
    probes_.add(lastProbeS_ - t0);
    return lastProbeS_ - t0;
}

void
Calibrator::begin()
{
    window_.clear();
    insideS_ = 0.0;
    active_ = true;
    timedProbe();
}

Calibrator::Timing
Calibrator::end(double hostS)
{
    active_ = false;
    timedProbe();
    const double net = hostS - insideS_;
    return {net, net * kReferenceS / medianOf(window_)};
}

namespace {

uint64_t
processMinorFaults()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<uint64_t>(usage.ru_minflt);
}

} // namespace

Tracer::Tracer() : startMinorFaults_(processMinorFaults()) {}

uint64_t
Tracer::minorFaults() const
{
    return processMinorFaults() - startMinorFaults_;
}

uint32_t
Tracer::id(const char *name)
{
    const auto it = ids_.find(name);
    if (it != ids_.end())
        return it->second;
    const uint32_t id = static_cast<uint32_t>(names_.size());
    names_.emplace_back(name);
    ids_.emplace(name, id);
    totals_.emplace_back();
    return id;
}

void
Tracer::open(uint32_t name, uint64_t iter)
{
    const int32_t parent = stack_.empty() ? -1 : stack_.back().stored;
    int32_t stored = -1;
    if (spans_.size() < kMaxStored) {
        stored = static_cast<int32_t>(spans_.size());
        spans_.push_back({name, parent, iter, 0.0, 0.0});
    } else {
        ++dropped_;
    }
    const double start = nowS();
    if (stored >= 0)
        spans_[stored].startS = start;
    stack_.push_back({name, stored, iter, start, 0.0});
}

void
Tracer::close()
{
    const double end = nowS();
    Frame frame = stack_.back();
    stack_.pop_back();
    const double dur = end - frame.startS;
    Totals &t = totals_[frame.name];
    ++t.count;
    t.totalS += dur;
    t.selfS += dur - frame.childS;
    if (!stack_.empty())
        stack_.back().childS += dur;
    if (frame.stored >= 0)
        spans_[frame.stored].endS = end;
}

const Tracer::Totals &
Tracer::totals(const char *name)
{
    return totals_[id(name)];
}

std::vector<std::pair<std::string, Tracer::Totals>>
Tracer::all() const
{
    std::vector<std::pair<std::string, Totals>> out;
    for (size_t i = 0; i < names_.size(); ++i)
        out.emplace_back(names_[i], totals_[i]);
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    // Chrome trace "X" events; args carry the iteration id and the
    // index of the parent span in this list (-1 for a root).
    out << "{\"traceEvents\":[";
    bool first = true;
    for (const Span &s : spans_) {
        if (!first)
            out << ",";
        first = false;
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"iter\":%" PRIu64
                      ",\"parent\":%d}}",
                      names_[s.name].c_str(), (s.startS - epochS_) * 1e6,
                      (s.endS - s.startS) * 1e6, s.iter, s.parent);
        out << "\n" << buf;
    }
    out << "\n],\"otherData\":{\"dropped_spans\":" << dropped_ << "}}\n";
    return static_cast<bool>(out);
}

void
Digest::bytes(const void *data, size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < len; ++i) {
        h_ ^= p[i];
        h_ *= 0x100000001b3ULL;
    }
}

void
Digest::words(const uint64_t *data, size_t count)
{
    uint64_t h = h_;
    for (size_t i = 0; i < count; ++i) {
        h ^= data[i];
        h *= 0x9e3779b97f4a7c15ULL;
        h ^= h >> 29;
    }
    h_ = h;
}

std::string
Digest::hex() const
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
    return buf;
}

DigestBook::DigestBook(const Options &opts) : print_(opts.printDigests)
{
    std::ifstream in(opts.dataDir + "/digests.txt");
    if (!in)
        return;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string key, hex;
        if (fields >> key >> hex)
            recorded_[key] = hex;
    }
}

bool
DigestBook::has(const std::string &key) const
{
    return recorded_.count(key) != 0;
}

bool
DigestBook::check(const std::string &key, const std::string &hex)
{
    if (print_)
        std::printf("digest %s %s\n", key.c_str(), hex.c_str());
    const auto it = recorded_.find(key);
    if (it == recorded_.end()) {
        if (print_)
            return true;
        std::printf("# check failed: no recorded digest for %s\n",
                    key.c_str());
        return false;
    }
    if (it->second == hex)
        return true;
    std::printf("# check failed: digest %s is %s, recorded %s\n",
                key.c_str(), hex.c_str(), it->second.c_str());
    return false;
}

void
Result::attempt(bool ok, const char *what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        if (what)
            std::printf("# check failed: %s\n", what);
    }
}

void
Result::metric(const std::string &name, double value,
               const std::string &unit)
{
    for (auto &m : metrics_) {
        if (m.first == name) {
            m.second = {value, unit};
            return;
        }
    }
    metrics_.push_back({name, {value, unit}});
    std::printf("# metric %-28s %.6g %s\n", name.c_str(), value,
                unit.c_str());
}

void
Result::timing(const std::string &name, const Samples &samples,
               double scale, const std::string &unit)
{
    const auto [pct, tailValue] = samples.tail();
    metric(name, scale * samples.median(), unit);
    std::printf("#   %s: median %.6g, p%.1f %.6g %s, n=%zu\n",
                name.c_str(), scale * samples.median(), pct,
                scale * tailValue, unit.c_str(), samples.size());
}

void
Result::note(const char *fmt, ...)
{
    std::printf("# ");
    va_list args;
    va_start(args, fmt);
    std::vprintf(fmt, args);
    va_end(args);
    std::printf("\n");
}

int
Result::finish(bool correct) const
{
    const bool allCorrect = correct && failed_ == 0 && attempted_ > 0;
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                allCorrect ? "true" : "false", attempted_, failed_);
    for (size_t i = 0; i < metrics_.size(); ++i) {
        const auto &[name, vu] = metrics_[i];
        const double v = std::isfinite(vu.first) ? vu.first : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", name.c_str(), v, vu.second.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return 0;
}

void
reportEndToEnd(Result &result, const Samples &setup, const Samples &iterS,
               const Samples &rawS, double workPerIter)
{
    result.timing("setup_s", setup, 1.0, "s");
    result.metric("peak_rss_mb", peakRssMb(), "MB");
    result.metric("work_per_s", workPerIter / iterS.median(), "1/s");
    result.timing("iter_ms_p50", iterS, 1e3, "ms");
    const auto [pct, tail] = rawS.tail();
    const Samples &probes = calibrator().probes();
    Result::note("raw host time per iteration: median %.6g ms, p%.1f "
                 "%.6g ms, n=%zu; calibration kernel median %.4f ms over "
                 "%zu probes (reference %.4f ms)",
                 1e3 * rawS.median(), pct, 1e3 * tail, rawS.size(),
                 1e3 * probes.median(), probes.size(),
                 1e3 * Calibrator::kReferenceS);
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

uint64_t
mixSeed(uint64_t seed, uint64_t stream)
{
    // splitmix64 over (seed, stream).
    uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 0x632be59bd9b4e019ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

void
printSelfTimes(Result &result, const Tracer &tracer, double untracedS,
               double tracedS)
{
    result.metric("host.minor_faults",
                  static_cast<double>(tracer.minorFaults()), "count");
    auto rows = tracer.all();
    std::sort(rows.begin(), rows.end(), [](const auto &a, const auto &b) {
        return a.second.selfS > b.second.selfS;
    });
    double selfSum = 0.0;
    double glueS = 0.0; // the benchmark's own bench.* spans
    for (const auto &row : rows) {
        selfSum += row.second.selfS;
        if (row.first.rfind("bench.", 0) == 0)
            glueS += row.second.selfS;
    }
    Result::note("self time by span (traced run; %" PRIu64
                 " spans beyond the in-memory cap of %zu not stored)",
                 tracer.dropped(), Tracer::kMaxStored);
    Result::note("  %-28s %10s %12s %7s %12s", "span", "calls", "self s",
                 "share", "total s");
    for (const auto &[name, t] : rows) {
        Result::note("  %-28s %10" PRIu64 " %12.4f %6.1f%% %12.4f",
                     name.c_str(), t.count, t.selfS,
                     selfSum > 0 ? 100.0 * t.selfS / selfSum : 0.0,
                     t.totalS);
    }
    Result::note("traced %.4f s, untraced %.4f s for the same work: "
                 "tracing overhead %+.4f s (%+.2f%%); self times sum "
                 "to %.4f s",
                 tracedS, untracedS, tracedS - untracedS,
                 untracedS > 0 ? 100.0 * (tracedS / untracedS - 1.0) : 0.0,
                 selfSum);
    Result::note("library layers account for %.4f s of the traced %.4f s "
                 "(%.2f%%); the rest, %.4f s, is benchmark glue outside "
                 "every layer span",
                 selfSum - glueS, tracedS,
                 tracedS > 0 ? 100.0 * (selfSum - glueS) / tracedS : 0.0,
                 glueS);
}

} // namespace perfbench
