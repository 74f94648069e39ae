/**
 * @file
 * Shared pieces of the host-time benchmark program: options, timing
 * samples, the outside-in span tracer, output digests, and the result
 * the program prints as its last line.
 */

#ifndef ANAHEIM_PERFBENCH_HARNESS_H
#define ANAHEIM_PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory holding the recorded digests (data/digests.txt). */
    std::string dataDir = "perfbench/data";
    /** Where the traced run writes its spans (Chrome trace JSON). */
    std::string spansOut;
    /** Print every output digest as "digest <key> <hex>" lines. */
    bool printDigests = false;
    /** Threads for the multi-threaded CKKS measurements. */
    size_t threadsN = 1;
};

/** Monotonic host time in seconds. */
inline double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Timing samples of one quantity, reported as the median, the highest
 *  percentile with at least ten samples beyond it, and the count. */
class Samples
{
  public:
    void add(double v) { values_.push_back(v); }
    size_t size() const { return values_.size(); }
    double sum() const;
    double median() const;
    /** (percentile, value) of the tail; with fewer than 11 samples the
     *  maximum, reported as percentile 100. */
    std::pair<double, double> tail() const;

  private:
    std::vector<double> values_;
};

/**
 * Machine-speed calibration. A virtual machine on a shared host runs the
 * same code 20-50% slower or faster from one minute to the next, so the
 * end-to-end timings are scaled to a reference speed: a fixed kernel
 * (sorting, ordered-map inserts of short strings, a multiply-xorshift
 * loop over 32 KB — no library code) is timed before, during and after
 * every iteration, and the iteration's host time is multiplied by
 * kReferenceS over the median kernel time of that iteration. The report
 * lines keep the raw host times.
 */
class Calibrator
{
  public:
    /** The kernel's host time on the reference machine, unloaded. */
    static constexpr double kReferenceS = 0.5e-3;

    /** Start an iteration: forget earlier probes, probe once. */
    void begin();
    /** Probe between the timed calls of an iteration. */
    void probe();
    /** Probe from inside a timed call when 50 ms have passed since the
     *  last probe, so long calls stay tracked; the probe's own time is
     *  taken out of the iteration by end(). */
    void maybeProbe()
    {
        if (active_ && nowS() - lastProbeS_ >= 0.05)
            insideS_ += timedProbe();
    }
    struct Timing {
        double hostS; ///< host seconds, in-call probes taken out
        double refS;  ///< the same at the reference speed
    };
    /** End an iteration whose timed calls took `hostS`: probe once more
     *  and scale. */
    Timing end(double hostS);
    /** Every probe of the run. */
    const Samples &probes() const { return probes_; }

  private:
    /** Returns the probe's host seconds. */
    double timedProbe();

    std::vector<double> window_;
    double insideS_ = 0.0;
    Samples probes_;
    double lastProbeS_ = 0.0;
    bool active_ = false;
    uint64_t state_ = 0x9e3779b97f4a7c15ULL;
};

/** The process-wide calibrator of the end-to-end loops. */
Calibrator &calibrator();

/** Median of a small vector (copies). */
double medianOf(std::vector<double> values);

/**
 * Outside-in span recorder. Spans are opened and closed around calls
 * into the library's public functions; each keeps its name, start, end,
 * parent and iteration id. Self time (duration minus the time covered
 * by child spans) and totals are accumulated online for every span;
 * the raw spans are kept in memory up to `kMaxStored` and written out
 * at exit. A null Tracer* turns every Scope into a pointer test.
 */
class Tracer
{
  public:
    static constexpr size_t kMaxStored = 100000;

    struct Totals {
        uint64_t count = 0;
        double totalS = 0.0;
        double selfS = 0.0;
    };

    Tracer();

    uint32_t id(const char *name);
    void open(uint32_t name, uint64_t iter);
    void close();

    const Totals &totals(const char *name);
    /** Names in first-use order with their totals. */
    std::vector<std::pair<std::string, Totals>> all() const;
    uint64_t dropped() const { return dropped_; }
    /** Minor page faults of the process since this tracer was made. */
    uint64_t minorFaults() const;

    /** Write the stored spans as a Chrome/Perfetto trace JSON. */
    bool write(const std::string &path) const;

  private:
    struct Span {
        uint32_t name;
        int32_t parent; ///< index into spans_, -1 for a root or dropped
        uint64_t iter;
        double startS;
        double endS;
    };
    struct Frame {
        uint32_t name;
        int32_t stored; ///< index into spans_ or -1
        uint64_t iter;
        double startS;
        double childS;
    };

    std::vector<std::string> names_;
    std::map<std::string, uint32_t> ids_;
    std::vector<Totals> totals_;
    std::vector<Frame> stack_;
    std::vector<Span> spans_;
    uint64_t dropped_ = 0;
    double epochS_ = nowS();
    uint64_t startMinorFaults_ = 0;
};

/** RAII span; a no-op when the tracer is null. */
class Scope
{
  public:
    Scope(Tracer *tracer, uint32_t name, uint64_t iter = 0)
        : tracer_(tracer)
    {
        if (tracer_)
            tracer_->open(name, iter);
    }
    ~Scope()
    {
        if (tracer_)
            tracer_->close();
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *tracer_;
};

/** 64-bit FNV-1a digest over raw values (doubles by bit pattern). */
class Digest
{
  public:
    void bytes(const void *data, size_t len);
    void u64(uint64_t v) { bytes(&v, sizeof v); }
    void f64(double v) { bytes(&v, sizeof v); }
    void str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }
    /** Fast word-wise mix for large coefficient buffers. */
    void words(const uint64_t *data, size_t count);
    std::string hex() const;

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** Recorded digests: "<key> <hex>" lines of data/digests.txt. */
class DigestBook
{
  public:
    explicit DigestBook(const Options &opts);
    /** True when `key` is recorded (and then `hex` must match). */
    bool has(const std::string &key) const;
    /** Compare against the record. An unrecorded key fails unless
     *  --print-digests is on, which also prints the digest. */
    bool check(const std::string &key, const std::string &hex);

  private:
    std::map<std::string, std::string> recorded_;
    bool print_;
};

/** What the program prints: the output-check tally plus named metrics. */
class Result
{
  public:
    void attempt(bool ok, const char *what = nullptr);
    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }

    /** A metric in the final JSON line. */
    void metric(const std::string &name, double value,
                const std::string &unit);
    /** A timing: the final JSON gets `scale` x median; the report line
     *  also gives the tail percentile and the sample count. */
    void timing(const std::string &name, const Samples &samples,
                double scale, const std::string &unit);
    /** A report-only line ("# note ..."), not in the final JSON. */
    static void note(const char *fmt, ...);

    /** Print the last line; returns the process exit code. */
    int finish(bool correct) const;

  private:
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics_;
};

/**
 * Set-up time: build `slot` with `build()` three times, freeing the
 * previous result before each build; `setup` gets one calibrated sample
 * per build and `slot` keeps the last. A fixed count keeps the
 * allocation history, and so the peak RSS, the same from run to run. A
 * traced run builds once and records raw host time.
 */
template <typename T, typename Build>
void
repeatSetup(const Options &opts, Samples &setup, T &slot, Build &&build)
{
    if (opts.trace) {
        // One raw sample: a traced run reports host time per layer.
        const double t0 = nowS();
        slot = build();
        setup.add(nowS() - t0);
        return;
    }
    for (int rep = 0; rep < 3; ++rep) {
        slot = T{};
        calibrator().begin();
        const double t0 = nowS();
        T built = build();
        setup.add(calibrator().end(nowS() - t0).refS);
        slot = std::move(built);
    }
}

/** Report the end-to-end metrics of an untraced run: `iterS` holds one
 *  calibrated sample per iteration of the closed loop and `rawS` the
 *  same iterations' host times; `workPerIter` is the work one median
 *  iteration completes, so work_per_s is workPerIter / median(iterS). */
void reportEndToEnd(Result &result, const Samples &setup,
                    const Samples &iterS, const Samples &rawS,
                    double workPerIter);

/** Peak resident set size of this process, MB (VmHWM). */
double peakRssMb();

/** Seed mixing for per-iteration input streams. */
uint64_t mixSeed(uint64_t seed, uint64_t stream);

/** Print the self-time table of a traced loop and the tracing overhead
 *  of `tracedS` against `untracedS` for the same work; report the
 *  loop's minor page faults (host.minor_faults: allocation churn that
 *  maps fresh pages). Call right after the traced loop. */
void printSelfTimes(Result &result, const Tracer &tracer, double untracedS,
                    double tracedS);

/** Workload entry points; each fills `result` and returns false when
 *  the workload could not run. */
bool runSimPaper(const Options &opts, Result &result);
bool runServeChaos(const Options &opts, Result &result);
bool runCkksBoot(const Options &opts, Result &result);
bool runCkksOps(const Options &opts, Result &result);

/** @name Layer probes for the traced run
 *  Each fills the per-layer metrics of the layers it covers. */
/// @{
/** Simulator layers: one chaos serving burst, a replay of its distinct
 *  traces under the chaos config, and a planner sweep. `haveAnaheim`
 *  skips the anaheim.* and obs.* step metrics (the caller measured them
 *  in its own loop); `haveServe` skips serve.* and sim.*. */
void probeSimLayers(const Options &opts, Result &result, bool haveAnaheim,
                    bool haveServe);
/** CKKS layers on the bootstrapping ring (2^11): traced bootstraps
 *  and, unless `haveSweep`, the per-layer sweep at 1 and N threads. */
void probeCkksLayers(const Options &opts, Result &result, bool haveSweep);
/// @}

} // namespace perfbench

#endif // ANAHEIM_PERFBENCH_HARNESS_H
