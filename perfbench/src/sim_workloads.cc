/**
 * @file
 * Simulator workloads: `sim_paper` (the Fig. 8 pass) and `serve_chaos`
 * (repeated chaos-configuration serving bursts), plus the simulator
 * layer probe the CKKS workloads' traced runs use.
 */

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "anaheim/framework.h"
#include "anaheim/planner.h"
#include "anaheim/runcontext.h"
#include "anaheim/workloads.h"
#include "harness.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/timeseries.h"
#include "serve/scheduler.h"
#include "trace/builders.h"

using namespace anaheim;

namespace perfbench {
namespace {

/** Span ids of one simulated run, registered once per tracer. */
struct RunSpans {
    explicit RunSpans(Tracer *t)
    {
        if (!t)
            return;
        run = t->id("bench.run");
        fwInit = t->id("anaheim.framework_init");
        ctxInit = t->id("anaheim.ctx_init");
        stepPim = t->id("anaheim.step_pim");
        stepGpu = t->id("anaheim.step_gpu");
        stepEnd = t->id("anaheim.step_end");
        finish = t->id("anaheim.finish");
        publish = t->id("obs.publish");
        attribution = t->id("obs.attribution");
    }
    uint32_t run = 0, fwInit = 0, ctxInit = 0, stepPim = 0, stepGpu = 0,
             stepEnd = 0, finish = 0, publish = 0, attribution = 0;
};

/** One trace through the public step API: framework construction,
 *  RunContext ctor / step / finish and the metrics publish that
 *  AnaheimFramework::execute() performs. */
RunResult
simulate(const AnaheimConfig &config, const OpSequence &seq, Tracer *t,
         const RunSpans &ids, uint64_t iter)
{
    Scope run(t, ids.run, iter);
    std::optional<AnaheimFramework> fw;
    {
        Scope s(t, ids.fwInit, iter);
        fw.emplace(config);
    }
    std::optional<RunContext> ctx;
    {
        Scope s(t, ids.ctxInit, iter);
        ctx.emplace(*fw, seq);
    }
    if (t) {
        while (!ctx->done()) {
            const uint32_t id = ctx->nextOp() == nullptr ? ids.stepEnd
                                : ctx->nextOnPim()       ? ids.stepPim
                                                         : ids.stepGpu;
            Scope s(t, id, iter);
            ctx->step();
        }
    } else {
        for (uint64_t k = 1; !ctx->done(); ++k) {
            ctx->step();
            if (k % 1024 == 0)
                calibrator().maybeProbe();
        }
    }
    RunResult result;
    {
        Scope s(t, ids.finish, iter);
        result = ctx->finish();
    }
    {
        Scope s(t, ids.publish, iter);
        obs::publishRunMetrics(result);
    }
    return result;
}

/** Digest of everything a run reports except the timeline itself. */
void
digestRun(Digest &d, const RunResult &r)
{
    d.f64(r.totalNs);
    d.f64(r.energyPj);
    for (const auto &[category, ns] : r.timeNsByCategory) {
        d.str(category);
        d.f64(ns);
    }
    d.f64(r.gpuDramBytes);
    d.f64(r.pimInternalBytes);
    const ResilienceStats &s = r.resilience;
    for (uint64_t v :
         {s.faultyWords, s.eccCorrected, s.eccUncorrectable,
          s.silentErrors, s.pimRetries, s.gpuFallbacks, s.laneFaults,
          s.retentionFaultyWords, s.scrubPasses, s.scrubCorrected,
          s.scrubUncorrectable, s.checksumChecks, s.checksumMismatches,
          s.checkpoints, s.rollbacks, s.replayedSegments, s.unrecovered,
          s.permanentFaultyWords, s.permanentLaneFaults,
          s.healthErrorEvents, s.quarantinedBanks, s.quarantinedLanes,
          s.migrations, s.gpuFallbacksRetryExhausted,
          s.gpuFallbacksUncheckpointed, s.gpuFallbacksCapacityFloor})
        d.u64(v);
    d.f64(r.pimCapacityFraction);
    d.u64(r.pimOffline ? 1 : 0);
}

/** The attribution report re-derives the run's category split from its
 *  timeline: same keys, same totals to summation-order rounding. */
bool
attributionMatches(const obs::AttributionReport &report, const RunResult &r)
{
    const auto totals = report.categoryTotalsNs();
    bool ok = totals.size() == r.timeNsByCategory.size() &&
              std::abs(report.totalNs - r.totalNs) <= 1e-6 * (1.0 + r.totalNs);
    for (const auto &[category, ns] : r.timeNsByCategory) {
        const auto it = totals.find(category);
        ok = ok && it != totals.end() &&
             std::abs(it->second - ns) <= 1e-6 * (1.0 + ns);
    }
    return ok;
}

uint64_t
pimInstructions()
{
    return obs::MetricsRegistry::global()
        .counter("pim.model.instructions")
        .value();
}

/** anaheim.* / obs.* / pim.* per-layer metrics from a traced loop. */
void
emitRunLayers(Result &result, Tracer &t, uint64_t instructions,
              uint64_t timelineEntries)
{
    const auto perStep = [&](const char *span, const char *prefix) {
        const Tracer::Totals &tot = t.totals(span);
        const std::string p = prefix;
        result.metric(p + "_s", tot.totalS, "s");
        result.metric(p + "_ns",
                      tot.count ? 1e9 * tot.totalS / tot.count : 0.0,
                      "ns");
        return tot;
    };
    const Tracer::Totals pim =
        perStep("anaheim.step_pim", "anaheim.step_pim");
    result.metric("anaheim.steps_pim", pim.count, "count");
    const Tracer::Totals gpu =
        perStep("anaheim.step_gpu", "anaheim.step_gpu");
    result.metric("anaheim.steps_gpu", gpu.count, "count");
    result.metric("anaheim.step_end_s", t.totals("anaheim.step_end").totalS,
                  "s");
    result.metric("anaheim.framework_init_s",
                  t.totals("anaheim.framework_init").totalS, "s");
    result.metric("anaheim.ctx_init_s", t.totals("anaheim.ctx_init").totalS,
                  "s");
    result.metric("anaheim.finish_s", t.totals("anaheim.finish").totalS,
                  "s");
    result.metric("anaheim.timeline_entries",
                  static_cast<double>(timelineEntries), "count");
    result.metric("obs.publish_s", t.totals("obs.publish").totalS, "s");
    result.metric("obs.attribution_s", t.totals("obs.attribution").totalS,
                  "s");
    result.metric("pim.instructions", static_cast<double>(instructions),
                  "count");
    result.metric("pim.ns_per_instruction",
                  instructions ? 1e9 * pim.totalS / instructions : 0.0,
                  "ns");
}

/** anaheim.plan_s: PimMemoryPlanner::plan over every (trace, config). */
void
emitPlanSweep(Result &result, const std::vector<const OpSequence *> &seqs,
              const std::vector<AnaheimConfig> &configs)
{
    const double t0 = nowS();
    size_t kernels = 0;
    for (const AnaheimConfig &c : configs)
        for (const OpSequence *seq : seqs)
            kernels += PimMemoryPlanner(c.dram, c.pim).plan(*seq).pimKernels;
    result.metric("anaheim.plan_s", nowS() - t0, "s");
    Result::note("planner sweep: %zu traces x %zu configs, %zu PIM kernels",
                 seqs.size(), configs.size(), kernels);
}

// ---------------------------------------------------------------- sim_paper

struct PaperConfig {
    std::string name;
    AnaheimConfig config;
};

std::vector<PaperConfig>
paperConfigs()
{
    std::vector<PaperConfig> out;
    const std::pair<const char *, AnaheimConfig> devices[] = {
        {"a100_nb", AnaheimConfig::a100NearBank()},
        {"a100_chbm", AnaheimConfig::a100CustomHbm()},
        {"rtx4090_nb", AnaheimConfig::rtx4090NearBank()},
    };
    for (const auto &[name, config] : devices) {
        AnaheimConfig gpuOnly = config;
        gpuOnly.pimEnabled = false;
        out.push_back({std::string(name) + "/gpu", gpuOnly});
        out.push_back({std::string(name) + "/anaheim", config});
    }
    return out;
}

/** Both CNNs exceed the 4090's 24 GB (§VII-B / Table V). */
bool
outOfMemory(const AnaheimConfig &config, const std::string &workload)
{
    return config.dram.capacityBytes < 30e9 &&
           (workload == "ResNet20" || workload == "ResNet18-AESPA");
}

using PaperWorkloads = std::vector<std::pair<WorkloadInfo, OpSequence>>;

struct PassTally {
    /** Calibrated and raw host seconds of each run position, one entry
     *  per pass. */
    std::vector<std::vector<double>> perRun;
    std::vector<std::vector<double>> perRunRaw;
    double ops = 0.0;
    uint64_t timelineEntries = 0;
};

/** One Fig. 8 pass: every (config, mode, workload) run with its output
 *  checks. Returns the pass wall time. */
double
paperPass(const PaperWorkloads &workloads,
          const std::vector<PaperConfig> &configs, Tracer *t,
          DigestBook &book, Result &result, PassTally &tally)
{
    const RunSpans ids(t);
    const uint32_t passId = t ? t->id("bench.pass") : 0;
    const uint32_t checkId = t ? t->id("bench.check") : 0;
    const double start = nowS();
    Scope pass(t, passId);
    uint64_t iter = 0;
    for (const PaperConfig &cfg : configs) {
        bool attributed = !cfg.config.pimEnabled;
        for (const auto &[info, seq] : workloads) {
            if (outOfMemory(cfg.config, info.name))
                continue;
            if (!t)
                calibrator().begin();
            const double t0 = nowS();
            const RunResult r = simulate(cfg.config, seq, t, ids, iter);
            bool attributionOk = true;
            if (!attributed) {
                // Fig. 8 prints one attribution table per device; its
                // category totals must reproduce the run's own.
                Scope s(t, ids.attribution, iter);
                attributionOk = attributionMatches(obs::buildAttribution(r), r);
                attributed = true;
            }
            const double hostS = nowS() - t0;
            const Calibrator::Timing timing =
                t ? Calibrator::Timing{hostS, hostS}
                  : calibrator().end(hostS);
            if (tally.perRun.size() <= iter) {
                tally.perRun.resize(iter + 1);
                tally.perRunRaw.resize(iter + 1);
            }
            tally.perRun[iter].push_back(timing.refS);
            tally.perRunRaw[iter].push_back(timing.hostS);
            tally.ops += static_cast<double>(seq.ops.size());
            tally.timelineEntries += r.timeline.size();
            Scope s(t, checkId, iter);
            Digest d;
            digestRun(d, r);
            const std::string key =
                "sim_paper/" + cfg.name + "/" + info.name;
            result.attempt(book.check(key, d.hex()));
            result.attempt(attributionOk, "attribution category totals");
            ++iter;
        }
    }
    return nowS() - start;
}

} // namespace

bool
runSimPaper(const Options &opts, Result &result)
{
    DigestBook book(opts);
    Samples setup;
    PaperWorkloads workloads;
    repeatSetup(opts, setup, workloads, [] { return makeAllWorkloads(); });
    const std::vector<PaperConfig> configs = paperConfigs();

    if (!opts.trace) {
        // At least two passes, so every run has a median over passes;
        // more while another pass fits the budget.
        PassTally tally;
        const double loopStart = nowS();
        double lastPass = 0.0;
        size_t passes = 0;
        do {
            lastPass =
                paperPass(workloads, configs, nullptr, book, result, tally);
            ++passes;
        } while (passes < 2 ||
                 nowS() - loopStart + lastPass <= opts.seconds);
        Samples runMedians, rawMedians;
        for (size_t i = 0; i < tally.perRun.size(); ++i) {
            runMedians.add(medianOf(tally.perRun[i]));
            rawMedians.add(medianOf(tally.perRunRaw[i]));
        }
        Result::note("sim_paper: %zu passes of %zu runs, %.0f ops per pass, "
                     "median pass %.3f s (host)",
                     passes, tally.perRun.size(), tally.ops / passes,
                     rawMedians.sum());
        // One iteration is one (device, mode, workload) run; work_per_s
        // is the pass's ops over the sum of per-run medians.
        reportEndToEnd(result, setup, runMedians, rawMedians,
                       tally.ops / static_cast<double>(passes) *
                           runMedians.median() / runMedians.sum());
        return true;
    }

    // Traced run: one untraced pass for the overhead baseline, then the
    // same pass with spans around every public call.
    PassTally plain;
    paperPass(workloads, configs, nullptr, book, result, plain);
    Tracer tracer;
    PassTally traced;
    const uint64_t instr0 = pimInstructions();
    paperPass(workloads, configs, &tracer, book, result, traced);
    const uint64_t instructions = pimInstructions() - instr0;
    // Compare run times only (probes and checks are outside both).
    double untracedS = 0.0, tracedS = 0.0;
    for (size_t i = 0; i < plain.perRunRaw.size(); ++i) {
        untracedS += plain.perRunRaw[i][0];
        tracedS += traced.perRunRaw[i][0];
    }
    printSelfTimes(result, tracer, untracedS, tracedS);
    result.metric("trace.build_s", setup.median(), "s");
    emitRunLayers(result, tracer, instructions, traced.timelineEntries);
    std::vector<const OpSequence *> seqs;
    for (const auto &w : workloads)
        seqs.push_back(&w.second);
    std::vector<AnaheimConfig> planConfigs;
    for (const PaperConfig &c : configs)
        if (c.config.pimEnabled)
            planConfigs.push_back(c.config);
    emitPlanSweep(result, seqs, planConfigs);
    if (!opts.spansOut.empty() && !tracer.write(opts.spansOut))
        Result::note("could not write spans to %s", opts.spansOut.c_str());
    probeSimLayers(opts, result, /*haveAnaheim=*/true, /*haveServe=*/false);
    probeCkksLayers(opts, result, /*haveSweep=*/false);
    return true;
}

// -------------------------------------------------------------- serve_chaos

namespace {

/** The serving-under-faults chaos device: A100 near-bank with the whole
 *  recovery ladder on, BER 1e-7 and one permanently failed bank, so
 *  quarantine and PimConfig::degraded re-pricing are live. */
AnaheimConfig
chaosConfig(uint64_t faultSeed)
{
    AnaheimConfig config = AnaheimConfig::a100NearBank();
    ResilienceConfig &rc = config.resilience;
    rc.ber = 1e-7;
    rc.faultSeed = faultSeed;
    rc.checksumEnabled = true;
    rc.checkpoint.enabled = true;
    rc.checkpoint.intervalSegments = 4;
    rc.checkpoint.maxRollbacks = 32;
    rc.health.enabled = true;
    rc.health.permanentThreshold = 2;
    rc.permanentBanks.push_back({2, 17});
    return config;
}

/** Fault seed the replay and the layer probe use. */
constexpr uint64_t kProbeFaultSeed = 0x0ddfa117u;

/** Tenant traces plus the service-time calibration they are sized by. */
struct ChaosSetup {
    std::vector<OpSequence> traces;
    double meanServiceNs = 0.0;
    double serialCapacityRps = 0.0;
    double buildS = 0.0;
};

OpSequence
ewChain(size_t pairs)
{
    const TraceParams params;
    const OpSequence add = buildHAdd(params);
    const OpSequence mult = buildPMult(params);
    OpSequence seq = add;
    seq.append(mult);
    for (size_t r = 1; r < pairs; ++r) {
        seq.append(add);
        seq.append(mult);
    }
    seq.name = "ew_chain";
    return seq;
}

/** Three tenant kinds, cycled over the streams: an HMult chain
 *  (GPU-heavy), an HAdd/PMult chain (all PIM) sized to the HMult's
 *  service time, and the paper's Boot workload. Calibrated on the
 *  fault-free chaos device, recovery-ladder overhead included. */
ChaosSetup
buildChaos()
{
    ChaosSetup setup;
    const double t0 = nowS();
    OpSequence hmult = buildHMult(TraceParams{});
    hmult.name = "hmult_chain";
    OpSequence boot = makeBootWorkload();
    boot.name = "paper_boot";
    const OpSequence pair = ewChain(1);
    setup.buildS = nowS() - t0;

    AnaheimConfig healthy = chaosConfig(kProbeFaultSeed);
    healthy.resilience.ber = 0.0;
    healthy.resilience.permanentBanks.clear();
    const AnaheimFramework calib(healthy);
    const double hmultNs = calib.execute(hmult).totalNs;
    const double pairNs = calib.execute(pair).totalNs;
    const size_t pairs =
        std::max<size_t>(1, static_cast<size_t>(hmultNs / pairNs + 0.5));
    OpSequence ew = ewChain(pairs);
    const double ewNs = calib.execute(ew).totalNs;
    const double bootNs = calib.execute(boot).totalNs;
    setup.traces = {std::move(hmult), std::move(ew), std::move(boot)};
    setup.meanServiceNs = (hmultNs + ewNs + bootNs) / 3.0;
    setup.serialCapacityRps = 1e9 / setup.meanServiceNs;
    return setup;
}

constexpr size_t kStreams = 8;
constexpr size_t kRequestsPerStream = 3;
/** One closed-loop iteration is this many bursts: a single burst's host
 *  time is multimodal (it depends on how many Boot requests complete),
 *  a group's is not, so its median is steady from seed to seed. */
constexpr uint64_t kBurstsPerIteration = 8;

/** Open-loop Poisson arrivals at the serial capacity, two deadline
 *  classes, a per-tenant rate limit, a short queue, preemption and
 *  telemetry — the SLO stack of the serving chaos sweep. */
ServeConfig
chaosServe(const ChaosSetup &setup, uint64_t arrivalSeed)
{
    ServeConfig serve;
    serve.streams = kStreams;
    serve.requestsPerStream = kRequestsPerStream;
    serve.arrival = ArrivalKind::OpenPoisson;
    serve.offeredRps = setup.serialCapacityRps;
    serve.arrivalSeed = arrivalSeed;
    serve.priorityClasses = 2;
    serve.maxQueuedPerStream = 2;
    serve.deadlineClassNs = {3.0 * setup.meanServiceNs,
                             6.0 * setup.meanServiceNs};
    serve.rateLimitRps = 1.5 * setup.serialCapacityRps /
                         static_cast<double>(kStreams);
    serve.rateLimitBurst = 3.0;
    serve.preemption = true;
    serve.telemetry.tickNs = setup.meanServiceNs;
    serve.telemetry.sloTarget = 0.9;
    serve.telemetry.fastWindowTicks = 2;
    serve.telemetry.slowWindowTicks = 6;
    return serve;
}

struct BurstTally {
    Samples runS;
    uint64_t resolved = 0;
    uint64_t completed = 0;
    uint64_t preemptions = 0;
    uint64_t repriceEvents = 0;
    uint64_t batches = 0;
    uint64_t batchedOps = 0;
    uint64_t rollbacks = 0;
    uint64_t replayedSegments = 0;
    uint64_t pimRetries = 0;
    uint64_t gpuFallbacks = 0;
    uint64_t unrecovered = 0;
};

/** Digest of a serving run: the stats, the latency list and every
 *  request's lifecycle and RunResult totals. */
std::string
digestServe(const serve::ServeResult &res)
{
    Digest d;
    const serve::ServeStats &st = res.stats;
    for (double v : {st.makespanNs, st.gpuBusyNs, st.pimBusyNs,
                     st.preemptionOverheadNs})
        d.f64(v);
    for (uint64_t v :
         {st.admitted, st.rejected, st.completed, st.rejectedQueueFull,
          st.rejectedRateLimited, st.shedDeadline, st.deadlineMet,
          st.preemptions, st.preemptionResumes, st.repriceEvents,
          st.alertsFired, st.alertsResolved, st.alertTicksFiring,
          st.batches, st.batchedOps})
        d.u64(v);
    for (double v : st.latenciesNs)
        d.f64(v);
    for (const auto &stream : res.streams) {
        for (const auto &req : stream.requests) {
            d.f64(req.arrivalNs);
            d.f64(req.startNs);
            d.f64(req.endNs);
            d.u64(static_cast<uint64_t>(req.cause));
            d.u64(req.deadlineMet ? 1 : 0);
            digestRun(d, req.result);
        }
    }
    return d.hex();
}

/** One burst: a fresh chaos device (fault seed) and one ServeScheduler
 *  run over the tenants (arrival seed), both drawn from (seed, burst).
 *  Returns the output digest after checking the request accounting. */
std::string
chaosBurst(const ChaosSetup &setup, uint64_t seed, uint64_t burst,
           Tracer *t, Result &result, BurstTally &tally)
{
    const uint32_t burstId = t ? t->id("bench.burst") : 0;
    const uint32_t fwId = t ? t->id("anaheim.framework_init") : 0;
    const uint32_t runId = t ? t->id("serve.run") : 0;
    const uint32_t checkId = t ? t->id("bench.check") : 0;
    Scope b(t, burstId, burst);
    std::optional<AnaheimFramework> fw;
    {
        Scope s(t, fwId, burst);
        fw.emplace(chaosConfig(mixSeed(seed, 2 * burst + 1)));
    }
    const ServeConfig serveConfig =
        chaosServe(setup, mixSeed(seed, 2 * burst));
    const double t0 = nowS();
    serve::ServeResult res;
    {
        Scope s(t, runId, burst);
        res = serve::ServeScheduler(*fw, serveConfig).run(setup.traces);
    }
    tally.runS.add(nowS() - t0);

    Scope s(t, checkId, burst);
    const serve::ServeStats &st = res.stats;
    const uint64_t offered = kStreams * kRequestsPerStream;
    bool ok = st.rejected == st.rejectedQueueFull + st.rejectedRateLimited +
                                 st.shedDeadline &&
              st.completed + st.rejected == offered &&
              st.admitted == st.completed &&
              st.latenciesNs.size() == st.completed &&
              st.deadlineMet <= st.completed;
    for (double v : st.latenciesNs)
        ok = ok && v > 0.0;
    for (const auto &stream : res.streams) {
        tally.rollbacks += stream.rollbacks;
        tally.pimRetries += stream.pimRetries;
        tally.gpuFallbacks += stream.gpuFallbacks;
        tally.unrecovered += stream.unrecovered;
        for (const auto &req : stream.requests)
            if (!req.rejected)
                tally.replayedSegments +=
                    req.result.resilience.replayedSegments;
    }
    result.attempt(ok, "serving request accounting");
    tally.resolved += st.completed + st.rejected;
    tally.completed += st.completed;
    tally.preemptions += st.preemptions;
    tally.repriceEvents += st.repriceEvents;
    tally.batches += st.batches;
    tally.batchedOps += st.batchedOps;
    // Each burst opens a telemetry epoch; dropping the finished series
    // keeps memory flat however many bursts a run makes.
    obs::TimeSeriesRegistry::global().clear();
    return digestServe(res);
}

/** serve.* and sim.* per-layer metrics from traced bursts. */
void
emitServeLayers(Result &result, Tracer &t, const BurstTally &tally)
{
    result.metric("serve.run_s", t.totals("serve.run").totalS, "s");
    result.metric("serve.burst_ms", 1e3 * tally.runS.median(), "ms");
    result.metric("serve.batched_ops_per_batch",
                  tally.batches ? static_cast<double>(tally.batchedOps) /
                                      static_cast<double>(tally.batches)
                                : 0.0,
                  "ratio");
    result.metric("serve.completed_ratio",
                  tally.resolved ? static_cast<double>(tally.completed) /
                                       static_cast<double>(tally.resolved)
                                 : 0.0,
                  "ratio");
    result.metric("serve.preemptions", tally.preemptions, "count");
    result.metric("serve.reprice_events", tally.repriceEvents, "count");
    result.metric("sim.rollbacks", tally.rollbacks, "count");
    result.metric("sim.replayed_segments", tally.replayedSegments, "count");
    result.metric("sim.pim_retries", tally.pimRetries, "count");
    result.metric("sim.gpu_fallbacks", tally.gpuFallbacks, "count");
}

/** Replay each distinct tenant trace alone under the chaos device, with
 *  spans around every step: splits serving step time between PIM, GPU
 *  and end-of-trace, which ServeScheduler::run hides from outside. */
void
replayTenants(const ChaosSetup &setup, Result &result)
{
    Tracer tracer;
    const RunSpans ids(&tracer);
    const AnaheimConfig config = chaosConfig(kProbeFaultSeed);
    const uint64_t instr0 = pimInstructions();
    uint64_t entries = 0;
    uint64_t iter = 0;
    const double t0 = nowS();
    for (const OpSequence &seq : setup.traces) {
        const RunResult r = simulate(config, seq, &tracer, ids, iter++);
        entries += r.timeline.size();
        Scope s(&tracer, ids.attribution);
        result.attempt(attributionMatches(obs::buildAttribution(r), r),
                       "attribution category totals");
    }
    Result::note("replay of %zu tenant traces under the chaos device: "
                 "%.4f s",
                 setup.traces.size(), nowS() - t0);
    emitRunLayers(result, tracer, pimInstructions() - instr0, entries);
}

void
planChaos(const ChaosSetup &setup, Result &result)
{
    std::vector<const OpSequence *> seqs;
    for (const OpSequence &seq : setup.traces)
        seqs.push_back(&seq);
    emitPlanSweep(result, seqs, {chaosConfig(kProbeFaultSeed)});
}

/** Seeds whose bursts have recorded digests (data/digests.txt); the
 *  default seed's burst 0 is re-run and checked on every run. */
constexpr uint64_t kDefaultSeed = 1;

std::string
burstKey(uint64_t seed, uint64_t burst)
{
    return "serve_chaos/" + std::to_string(seed) + "/" +
           std::to_string(burst);
}

} // namespace

bool
runServeChaos(const Options &opts, Result &result)
{
    DigestBook book(opts);
    Samples setupS;
    Samples buildS;
    ChaosSetup setup;
    repeatSetup(opts, setupS, setup, [&] {
        ChaosSetup built = buildChaos();
        buildS.add(built.buildS);
        return built;
    });
    Result::note("serve_chaos: %zu streams x %zu requests, offered %.1f "
                 "req/s (serial capacity), mean service %.3f ms",
                 kStreams, kRequestsPerStream, setup.serialCapacityRps,
                 setup.meanServiceNs * 1e-6);

    // Bursts in groups of kBurstsPerIteration until the budget is spent
    // (traced runs split it between an untraced and a traced half over
    // the same bursts).
    const auto loop = [&](Tracer *t, double budget, uint64_t maxBursts,
                          BurstTally &tally, Samples &groupS,
                          Samples &rawGroupS) {
        const double start = nowS();
        std::string first;
        uint64_t b = 0;
        while (b < maxBursts && (b == 0 || nowS() - start < budget)) {
            const double before = tally.runS.sum();
            if (!t)
                calibrator().begin();
            for (uint64_t end = b + kBurstsPerIteration; b < end; ++b) {
                const std::string hex =
                    chaosBurst(setup, opts.seed, b, t, result, tally);
                if (b == 0)
                    first = hex;
                const std::string key = burstKey(opts.seed, b);
                if (book.has(key) || opts.printDigests)
                    result.attempt(book.check(key, hex));
                if (!t)
                    calibrator().probe();
            }
            const double hostS = tally.runS.sum() - before;
            groupS.add(t ? hostS : calibrator().end(hostS).refS);
            rawGroupS.add(hostS);
        }
        return std::make_pair(b, first);
    };

    BurstTally tally;
    Samples groupS, rawGroupS;
    const auto [bursts, firstHex] =
        loop(nullptr, opts.trace ? opts.seconds / 2 : opts.seconds,
             UINT64_MAX, tally, groupS, rawGroupS);
    const double untracedS = tally.runS.sum();

    // Determinism: burst 0 again must reproduce its digest, and the
    // default seed's burst 0 must match the recorded digest whatever
    // seed this run used.
    BurstTally extra;
    result.attempt(chaosBurst(setup, opts.seed, 0, nullptr, result,
                              extra) == firstHex,
                   "serve_chaos burst 0 is not deterministic");
    if (opts.seed != kDefaultSeed)
        result.attempt(book.check(burstKey(kDefaultSeed, 0),
                                  chaosBurst(setup, kDefaultSeed, 0,
                                             nullptr, result, extra)));
    Result::note("serve_chaos: %llu bursts, %llu requests resolved, %llu "
                 "completed, %llu preemptions, %llu re-pricings, %llu "
                 "rollbacks, %llu GPU fallbacks, %llu unrecovered",
                 static_cast<unsigned long long>(bursts),
                 static_cast<unsigned long long>(tally.resolved),
                 static_cast<unsigned long long>(tally.completed),
                 static_cast<unsigned long long>(tally.preemptions),
                 static_cast<unsigned long long>(tally.repriceEvents),
                 static_cast<unsigned long long>(tally.rollbacks),
                 static_cast<unsigned long long>(tally.gpuFallbacks),
                 static_cast<unsigned long long>(tally.unrecovered));

    if (!opts.trace) {
        const auto [pct, tail] = tally.runS.tail();
        Result::note("per burst: median %.3f ms, p%.1f %.3f ms, n=%zu",
                     1e3 * tally.runS.median(), pct, 1e3 * tail,
                     tally.runS.size());
        // Every burst resolves all of its requests.
        reportEndToEnd(result, setupS, groupS, rawGroupS,
                       static_cast<double>(kBurstsPerIteration * kStreams *
                                           kRequestsPerStream));
        return true;
    }

    Tracer tracer;
    BurstTally traced;
    Samples tracedGroups, tracedRaw;
    loop(&tracer, 1e9, bursts, traced, tracedGroups, tracedRaw);
    printSelfTimes(result, tracer, untracedS, traced.runS.sum());
    if (!opts.spansOut.empty() && !tracer.write(opts.spansOut))
        Result::note("could not write spans to %s", opts.spansOut.c_str());
    result.metric("trace.build_s", buildS.median(), "s");
    emitServeLayers(result, tracer, traced);
    replayTenants(setup, result);
    planChaos(setup, result);
    probeCkksLayers(opts, result, /*haveSweep=*/false);
    return true;
}

void
probeSimLayers(const Options &opts, Result &result, bool haveAnaheim,
               bool haveServe)
{
    const ChaosSetup setup = buildChaos();
    if (!haveServe) {
        Tracer tracer;
        BurstTally tally;
        DigestBook book(opts);
        for (uint64_t b = 0; b < 2; ++b)
            result.attempt(book.check(
                burstKey(kDefaultSeed, b),
                chaosBurst(setup, kDefaultSeed, b, &tracer, result, tally)));
        emitServeLayers(result, tracer, tally);
    }
    if (!haveAnaheim) {
        result.metric("trace.build_s", setup.buildS, "s");
        replayTenants(setup, result);
        planChaos(setup, result);
    }
}

} // namespace perfbench
