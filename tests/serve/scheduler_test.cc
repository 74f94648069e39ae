/**
 * @file
 * Serving-scheduler tests: the multi-tenant event loop must be a pure
 * function of (config, traces, seeds) — bitwise identical across
 * reruns and host thread counts — batching must change scheduling
 * only (never any per-request result), overlap must beat the serial
 * baseline, and the RunContext stepping API must reproduce
 * AnaheimFramework::execute exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "anaheim/framework.h"
#include "anaheim/runcontext.h"
#include "common/parallel.h"
#include "serve/scheduler.h"
#include "trace/builders.h"

namespace anaheim {
namespace {

/** GPU-heavy tenant trace. */
OpSequence
hmultTrace()
{
    OpSequence seq = buildHMult(TraceParams{});
    seq.name = "hmult";
    return seq;
}

/** PIM-heavy tenant trace: all-element-wise HADD/PMULT pairs. */
OpSequence
ewTrace(size_t pairs)
{
    const TraceParams params;
    OpSequence seq = buildHAdd(params);
    const OpSequence add = seq;
    const OpSequence mult = buildPMult(params);
    seq.append(mult);
    for (size_t r = 1; r < pairs; ++r) {
        seq.append(add);
        seq.append(mult);
    }
    seq.name = "ew";
    return seq;
}

std::vector<OpSequence>
mixedTraces()
{
    return {hmultTrace(), ewTrace(30)};
}

ServeConfig
servingConfig(double offeredRps)
{
    ServeConfig serve;
    serve.streams = 8;
    serve.requestsPerStream = 3;
    serve.offeredRps = offeredRps;
    serve.priorityClasses = 2;
    return serve;
}

void
foldDouble(std::vector<uint64_t> &out, double value)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    out.push_back(bits);
}

/** Bitwise digest of everything a serve run decides: request
 *  lifecycles, per-run totals, full timelines, aggregate stats. */
std::vector<uint64_t>
digest(const serve::ServeResult &result)
{
    std::vector<uint64_t> out;
    foldDouble(out, result.stats.makespanNs);
    foldDouble(out, result.stats.gpuBusyNs);
    foldDouble(out, result.stats.pimBusyNs);
    out.push_back(result.stats.admitted);
    out.push_back(result.stats.rejected);
    out.push_back(result.stats.completed);
    out.push_back(result.stats.rejectedQueueFull);
    out.push_back(result.stats.rejectedRateLimited);
    out.push_back(result.stats.shedDeadline);
    out.push_back(result.stats.deadlineMet);
    out.push_back(result.stats.preemptions);
    out.push_back(result.stats.preemptionResumes);
    foldDouble(out, result.stats.preemptionOverheadNs);
    out.push_back(result.stats.repriceEvents);
    out.push_back(result.stats.batches);
    out.push_back(result.stats.batchedOps);
    for (const double l : result.stats.latenciesNs)
        foldDouble(out, l);
    for (const serve::ServeStreamResult &stream : result.streams) {
        out.push_back(stream.priority);
        out.push_back(stream.pimRetries);
        out.push_back(stream.rollbacks);
        out.push_back(stream.gpuFallbacks);
        out.push_back(stream.migrations);
        out.push_back(stream.unrecovered);
        for (const serve::ServeRequest &req : stream.requests) {
            foldDouble(out, req.arrivalNs);
            foldDouble(out, req.startNs);
            foldDouble(out, req.endNs);
            out.push_back(req.rejected ? 1 : 0);
            out.push_back(static_cast<uint64_t>(req.cause));
            out.push_back(req.deadlineMet ? 1 : 0);
            foldDouble(out, req.result.totalNs);
            foldDouble(out, req.result.energyPj);
            for (const GanttEntry &entry : req.result.timeline) {
                foldDouble(out, entry.startNs);
                foldDouble(out, entry.endNs);
                foldDouble(out, entry.energyPj);
            }
        }
    }
    return out;
}

TEST(Serve, RerunIsBitwiseIdentical)
{
    const AnaheimFramework fw(AnaheimConfig::a100NearBank());
    const auto traces = mixedTraces();
    const serve::ServeScheduler sched(fw, servingConfig(8000.0));
    EXPECT_EQ(digest(sched.run(traces)), digest(sched.run(traces)));
}

TEST(Serve, DeterministicAcrossThreadCounts)
{
    const AnaheimFramework fw(AnaheimConfig::a100NearBank());
    const auto traces = mixedTraces();
    const serve::ServeScheduler sched(fw, servingConfig(8000.0));

    setParallelThreads(1);
    const auto one = digest(sched.run(traces));
    setParallelThreads(4);
    const auto four = digest(sched.run(traces));
    setParallelThreads(0); // restore the default pool
    EXPECT_EQ(one, four);
}

TEST(Serve, BatchingChangesSchedulingNotResults)
{
    // Faults + checksums on: the fault draws are the most fragile
    // per-request state, and they must be keyed by (request, op),
    // never by dispatch order.
    AnaheimConfig config = AnaheimConfig::a100NearBank();
    config.resilience.ber = 1e-6;
    config.resilience.checksumEnabled = true;
    const AnaheimFramework fw(config);
    const auto traces = mixedTraces();

    ServeConfig on = servingConfig(8000.0);
    ServeConfig off = on;
    off.batching = false;
    const auto withBatch =
        serve::ServeScheduler(fw, on).run(traces);
    const auto without =
        serve::ServeScheduler(fw, off).run(traces);

    ASSERT_GT(withBatch.stats.batches, 0u);
    EXPECT_EQ(without.stats.batches, 0u);
    ASSERT_EQ(withBatch.streams.size(), without.streams.size());
    for (size_t s = 0; s < withBatch.streams.size(); ++s) {
        const auto &a = withBatch.streams[s].requests;
        const auto &b = without.streams[s].requests;
        ASSERT_EQ(a.size(), b.size());
        for (size_t k = 0; k < a.size(); ++k) {
            const RunResult &ra = a[k].result;
            const RunResult &rb = b[k].result;
            // Start/end times and transition charges may differ; the
            // computation itself — work, energy, traffic, faults —
            // must not.
            EXPECT_EQ(ra.energyPj, rb.energyPj);
            EXPECT_EQ(ra.gpuDramBytes, rb.gpuDramBytes);
            EXPECT_EQ(ra.pimInternalBytes, rb.pimInternalBytes);
            EXPECT_EQ(ra.resilience.faultyWords,
                      rb.resilience.faultyWords);
            EXPECT_EQ(ra.resilience.eccCorrected,
                      rb.resilience.eccCorrected);
            EXPECT_EQ(ra.resilience.eccUncorrectable,
                      rb.resilience.eccUncorrectable);
            EXPECT_EQ(ra.resilience.silentErrors,
                      rb.resilience.silentErrors);
            EXPECT_EQ(ra.resilience.pimRetries,
                      rb.resilience.pimRetries);
            EXPECT_EQ(ra.resilience.checksumMismatches,
                      rb.resilience.checksumMismatches);
            EXPECT_EQ(ra.resilience.unrecovered,
                      rb.resilience.unrecovered);
            ASSERT_EQ(ra.timeline.size(), rb.timeline.size());
            for (size_t e = 0; e < ra.timeline.size(); ++e) {
                EXPECT_EQ(ra.timeline[e].phase, rb.timeline[e].phase);
                EXPECT_EQ(ra.timeline[e].device,
                          rb.timeline[e].device);
                EXPECT_EQ(ra.timeline[e].cls, rb.timeline[e].cls);
                EXPECT_EQ(ra.timeline[e].energyPj,
                          rb.timeline[e].energyPj);
            }
        }
    }
}

TEST(Serve, BatchesCapAtEightCiphertexts)
{
    // Twelve lockstep streams of one PIM-heavy shape offer twelve
    // compatible steps per dispatch; a fused dispatch takes at most
    // eight of them (the leader plus seven followers).
    const AnaheimFramework fw(AnaheimConfig::a100NearBank());
    ServeConfig serve;
    serve.streams = 12;
    serve.requestsPerStream = 1;
    serve.arrival = ArrivalKind::Closed;
    const auto stats =
        serve::ServeScheduler(fw, serve).run({ewTrace(4)}).stats;

    ASSERT_EQ(stats.completed, 12u);
    ASSERT_GT(stats.batches, 0u);
    EXPECT_LE(stats.batchedOps, 8 * stats.batches);
}

TEST(Serve, OverlapBeatsSerialBaseline)
{
    const AnaheimFramework fw(AnaheimConfig::a100NearBank());
    const auto traces = mixedTraces();
    const ServeConfig overlapped = servingConfig(12000.0);
    ServeConfig serial = overlapped;
    serial.overlap = false;
    serial.batching = false;

    const auto fast =
        serve::ServeScheduler(fw, overlapped).run(traces).stats;
    const auto slow =
        serve::ServeScheduler(fw, serial).run(traces).stats;
    ASSERT_EQ(fast.completed, slow.completed);
    // The GPU-heavy/PIM-heavy mix leaves plenty of cross-trace
    // parallelism; 1.3x is a conservative floor for this population
    // (the serving bench demonstrates ~1.9x at saturation).
    EXPECT_LT(fast.makespanNs * 1.3, slow.makespanNs);
}

TEST(Serve, CrossTraceGpuPimOverlapExists)
{
    const AnaheimFramework fw(AnaheimConfig::a100NearBank());
    const auto traces = mixedTraces();
    const auto result =
        serve::ServeScheduler(fw, servingConfig(12000.0)).run(traces);

    // Some GPU span of one stream must run while another stream's PIM
    // span is in flight — the defining schedule shape of the overlap
    // scheduler (visible as parallel tracks in the Perfetto export).
    bool found = false;
    const auto &streams = result.streams;
    for (size_t i = 0; i < streams.size() && !found; ++i) {
        for (const serve::ServeRequest &ri : streams[i].requests) {
            for (const GanttEntry &a : ri.result.timeline) {
                if (a.device != Lane::GPU)
                    continue;
                for (size_t j = 0; j < streams.size(); ++j) {
                    if (j == i)
                        continue;
                    for (const serve::ServeRequest &rj :
                         streams[j].requests) {
                        for (const GanttEntry &b : rj.result.timeline) {
                            if (b.device == Lane::PIM &&
                                a.startNs < b.endNs &&
                                b.startNs < a.endNs &&
                                a.endNs > a.startNs &&
                                b.endNs > b.startNs)
                                found = true;
                        }
                    }
                }
            }
            if (found)
                break;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Serve, AdmissionRejectsBeyondQueueLimit)
{
    const AnaheimFramework fw(AnaheimConfig::a100NearBank());
    const auto traces = mixedTraces();
    ServeConfig serve = servingConfig(5e6); // everyone arrives at once
    serve.requestsPerStream = 8;
    serve.maxQueuedPerStream = 2;
    const auto result = serve::ServeScheduler(fw, serve).run(traces);

    const auto &stats = result.stats;
    EXPECT_GT(stats.rejected, 0u);
    EXPECT_EQ(stats.admitted + stats.rejected,
              static_cast<uint64_t>(serve.streams) *
                  serve.requestsPerStream);
    EXPECT_EQ(stats.completed, stats.admitted);
    // Every rejection here is a queue overflow, and the cause split
    // must say so exactly.
    EXPECT_EQ(stats.rejectedQueueFull, stats.rejected);
    EXPECT_EQ(stats.rejectedRateLimited, 0u);
    EXPECT_EQ(stats.shedDeadline, 0u);
    // Rejected requests carry no run result and the queue-full cause.
    for (const auto &stream : result.streams) {
        for (const auto &req : stream.requests) {
            if (req.rejected) {
                EXPECT_TRUE(req.result.timeline.empty());
                EXPECT_EQ(req.cause, serve::RejectCause::QueueFull);
            } else {
                EXPECT_EQ(req.cause, serve::RejectCause::None);
            }
        }
    }
}

/** Sums per-request reject causes and checks they partition the
 *  aggregate counters exactly — no double counting, nothing dropped. */
void
expectCausePartition(const serve::ServeResult &result,
                     const ServeConfig &serve)
{
    const serve::ServeStats &stats = result.stats;
    EXPECT_EQ(stats.rejected, stats.rejectedQueueFull +
                                  stats.rejectedRateLimited +
                                  stats.shedDeadline);
    EXPECT_EQ(stats.admitted + stats.rejected,
              static_cast<uint64_t>(serve.streams) *
                  serve.requestsPerStream);
    EXPECT_EQ(stats.completed, stats.admitted);
    uint64_t queueFull = 0;
    uint64_t rateLimited = 0;
    uint64_t shed = 0;
    for (const auto &stream : result.streams) {
        for (const auto &req : stream.requests) {
            EXPECT_EQ(req.rejected,
                      req.cause != serve::RejectCause::None);
            queueFull += req.cause == serve::RejectCause::QueueFull;
            rateLimited += req.cause == serve::RejectCause::RateLimited;
            shed += req.cause == serve::RejectCause::DeadlineShed;
        }
    }
    EXPECT_EQ(queueFull, stats.rejectedQueueFull);
    EXPECT_EQ(rateLimited, stats.rejectedRateLimited);
    EXPECT_EQ(shed, stats.shedDeadline);
}

TEST(Serve, PercentileHandlesEdgeCases)
{
    serve::ServeStats stats;
    // Empty sample: every percentile is 0, including the boundaries.
    EXPECT_EQ(stats.percentileNs(50.0), 0.0);
    EXPECT_EQ(stats.percentileNs(0.0), 0.0);
    EXPECT_EQ(stats.percentileNs(100.0), 0.0);

    stats.latenciesNs = {5.0};
    EXPECT_EQ(stats.percentileNs(0.0), 5.0);
    EXPECT_EQ(stats.percentileNs(50.0), 5.0);
    EXPECT_EQ(stats.percentileNs(100.0), 5.0);

    stats.latenciesNs = {5.0, 1.0, 3.0};
    EXPECT_EQ(stats.percentileNs(0.0), 1.0);   // minimum
    EXPECT_EQ(stats.percentileNs(100.0), 5.0); // maximum
    EXPECT_EQ(stats.percentileNs(34.0), 3.0);  // nearest rank 2 of 3
    EXPECT_EQ(stats.percentileNs(50.0), 3.0);
    EXPECT_EQ(stats.percentileNs(99.0), 5.0);
    // Out-of-range p clamps instead of indexing out of bounds.
    EXPECT_EQ(stats.percentileNs(-10.0), 1.0);
    EXPECT_EQ(stats.percentileNs(250.0), 5.0);
}

TEST(Serve, RateLimiterRejectsWithDedicatedCause)
{
    const AnaheimFramework fw(AnaheimConfig::a100NearBank());
    const auto traces = mixedTraces();
    ServeConfig serve = servingConfig(50000.0); // well past the limit
    serve.requestsPerStream = 6;
    serve.rateLimitRps = 2000.0; // per stream; offered is ~6250/stream
    serve.rateLimitBurst = 1.0;
    const auto result = serve::ServeScheduler(fw, serve).run(traces);

    EXPECT_GT(result.stats.rejectedRateLimited, 0u);
    EXPECT_EQ(result.stats.rejectedQueueFull, 0u);
    EXPECT_EQ(result.stats.shedDeadline, 0u);
    expectCausePartition(result, serve);
}

TEST(Serve, DeadlineSheddingDropsGuaranteedMisses)
{
    const AnaheimFramework fw(AnaheimConfig::a100NearBank());
    const auto traces = mixedTraces();
    // Everyone arrives at once; the deadline covers a couple of
    // service times, so the back of each queue is a guaranteed miss
    // and must be shed instead of executed.
    const double serviceNs =
        std::max(fw.execute(traces[0]).totalNs,
                 fw.execute(traces[1]).totalNs);
    ServeConfig serve = servingConfig(5e6);
    serve.requestsPerStream = 8;
    // Two deadline classes exercise the per-class round-robin.
    serve.deadlineClassNs = {2.0 * serviceNs, 3.0 * serviceNs};
    const auto result = serve::ServeScheduler(fw, serve).run(traces);

    EXPECT_GT(result.stats.shedDeadline, 0u);
    EXPECT_GT(result.stats.deadlineMet, 0u);
    EXPECT_EQ(result.stats.rejectedRateLimited, 0u);
    expectCausePartition(result, serve);
    // Goodput only counts deadline-met completions.
    EXPECT_LE(result.stats.goodputRps(), result.stats.throughputRps());
    EXPECT_LE(result.stats.deadlineMet, result.stats.completed);
    for (const auto &stream : result.streams) {
        for (const auto &req : stream.requests) {
            if (req.cause == serve::RejectCause::DeadlineShed) {
                EXPECT_TRUE(req.result.timeline.empty());
            }
            if (req.deadlineMet) {
                EXPECT_FALSE(req.rejected);
                EXPECT_LE(req.endNs, req.deadlineNs);
            }
        }
    }
}

TEST(Serve, ClosedLoopRejectionReleasesNext)
{
    // A rate-limited closed-loop stream must keep draining: each
    // rejection immediately releases the stream's next request, so
    // every request resolves (the pre-fix scheduler stranded the
    // remainder of the stream and under-reported totals).
    const AnaheimFramework fw(AnaheimConfig::a100NearBank());
    const auto traces = mixedTraces();
    ServeConfig serve;
    serve.streams = 2;
    serve.requestsPerStream = 5;
    serve.arrival = ArrivalKind::Closed;
    serve.rateLimitRps = 1000.0; // slower than the service rate
    serve.rateLimitBurst = 1.0;
    const auto result = serve::ServeScheduler(fw, serve).run(traces);

    EXPECT_EQ(result.stats.completed + result.stats.rejected,
              static_cast<uint64_t>(serve.streams) *
                  serve.requestsPerStream);
    EXPECT_GT(result.stats.rejectedRateLimited, 0u);
    // The bucket starts full, so every stream serves at least one.
    for (const auto &stream : result.streams) {
        uint64_t done = 0;
        for (const auto &req : stream.requests) {
            done += !req.rejected;
            // Resolved one way or the other — nothing stranded.
            EXPECT_TRUE(req.rejected || req.endNs > 0.0);
        }
        EXPECT_GE(done, 1u);
    }
    expectCausePartition(result, serve);
}

TEST(Serve, PreemptionLeavesRunResultsIdentical)
{
    // Preemption changes WHO waits, never WHAT any run computes: the
    // save/restore passes bill the device horizon and ServeStats, so a
    // preempted run's RunResult must match the no-preemption schedule
    // bit for bit (the "resumes bitwise-identically" guarantee).
    const AnaheimFramework fw(AnaheimConfig::a100NearBank());
    const auto traces = mixedTraces();
    ServeConfig on = servingConfig(12000.0);
    on.preemption = true;
    // Batching off: fused followers skip transition charges, and the
    // two schedules batch differently — keep the comparison exact.
    on.batching = false;
    ServeConfig off = on;
    off.preemption = false;

    const auto withPreempt = serve::ServeScheduler(fw, on).run(traces);
    const auto without = serve::ServeScheduler(fw, off).run(traces);

    ASSERT_GT(withPreempt.stats.preemptions, 0u);
    // Every preempted run has costed work left, so it always comes
    // back and pays its restore.
    EXPECT_EQ(withPreempt.stats.preemptionResumes,
              withPreempt.stats.preemptions);
    EXPECT_GT(withPreempt.stats.preemptionOverheadNs, 0.0);
    EXPECT_EQ(without.stats.preemptions, 0u);
    EXPECT_EQ(without.stats.preemptionOverheadNs, 0.0);
    ASSERT_EQ(withPreempt.streams.size(), without.streams.size());
    for (size_t s = 0; s < withPreempt.streams.size(); ++s) {
        const auto &a = withPreempt.streams[s].requests;
        const auto &b = without.streams[s].requests;
        ASSERT_EQ(a.size(), b.size());
        for (size_t k = 0; k < a.size(); ++k) {
            const RunResult &ra = a[k].result;
            const RunResult &rb = b[k].result;
            EXPECT_EQ(ra.energyPj, rb.energyPj);
            EXPECT_EQ(ra.gpuDramBytes, rb.gpuDramBytes);
            EXPECT_EQ(ra.pimInternalBytes, rb.pimInternalBytes);
            ASSERT_EQ(ra.timeline.size(), rb.timeline.size());
            for (size_t e = 0; e < ra.timeline.size(); ++e) {
                EXPECT_EQ(ra.timeline[e].phase, rb.timeline[e].phase);
                EXPECT_EQ(ra.timeline[e].device,
                          rb.timeline[e].device);
                // Durations are differences of absolute timestamps,
                // and the two schedules embed the run at different
                // offsets — allow the resulting last-bit float noise,
                // nothing more.
                EXPECT_NEAR(ra.timeline[e].endNs -
                                ra.timeline[e].startNs,
                            rb.timeline[e].endNs -
                                rb.timeline[e].startNs,
                            1e-6);
                EXPECT_EQ(ra.timeline[e].energyPj,
                          rb.timeline[e].energyPj);
            }
        }
    }
}

/** The full SLO + resilience stack in one config: faults, recovery,
 *  health quarantine, deadlines, rate limits and preemption. */
ServeConfig
resilientServeConfig()
{
    ServeConfig serve = servingConfig(10000.0);
    serve.requestsPerStream = 4;
    serve.deadlineNs = 1e9; // generous: estimator on, shedding rare
    serve.rateLimitRps = 5000.0;
    serve.rateLimitBurst = 2.0;
    serve.preemption = true;
    return serve;
}

AnaheimConfig
faultyDeviceConfig()
{
    AnaheimConfig config = AnaheimConfig::a100NearBank();
    ResilienceConfig &rc = config.resilience;
    rc.ber = 1e-6;
    rc.checksumEnabled = true;
    rc.checkpoint.enabled = true;
    rc.checkpoint.intervalSegments = 8;
    rc.checkpoint.maxRollbacks = 32;
    rc.health.enabled = true;
    rc.health.permanentThreshold = 2;
    rc.permanentBanks.push_back({2, 17});
    return config;
}

TEST(Serve, ServeUnderFaultsIsDeterministic)
{
    // Satellite of the §16 determinism story: with every new policy ON
    // and a faulty device, a serve run is still a pure function of
    // (config, traces, seeds). The serve_determinism_threads4 ctest
    // entry reruns this under ANAHEIM_THREADS=4.
    const AnaheimFramework fw(faultyDeviceConfig());
    const auto traces = mixedTraces();
    const serve::ServeScheduler sched(fw, resilientServeConfig());
    EXPECT_EQ(digest(sched.run(traces)), digest(sched.run(traces)));
}

TEST(Serve, TelemetrySamplingPreservesBitwiseDeterminism)
{
    // §17: time-series sampling observes the schedule, it must never
    // steer it. A run with a telemetry tick must be bitwise identical
    // to the same run with telemetry off, and a sampled rerun must be
    // bitwise identical to itself (incl. under ANAHEIM_THREADS=4 via
    // the serve_determinism_threads4 ctest entry). Alert counters are
    // simulated-time artifacts, so they replay exactly too.
    const AnaheimFramework fw(faultyDeviceConfig());
    const auto traces = mixedTraces();

    ServeConfig sampled = resilientServeConfig();
    sampled.telemetry.tickNs = 3.0e6;
    sampled.telemetry.sloTarget = 0.9;
    sampled.telemetry.fastWindowTicks = 2;
    sampled.telemetry.slowWindowTicks = 6;
    ServeConfig unsampled = sampled;
    unsampled.telemetry.tickNs = 0.0; // telemetry disabled

    const serve::ServeScheduler sampledSched(fw, sampled);
    const auto first = sampledSched.run(traces);
    const auto second = sampledSched.run(traces);
    EXPECT_EQ(digest(first), digest(second));
    EXPECT_EQ(first.stats.alertsFired, second.stats.alertsFired);
    EXPECT_EQ(first.stats.alertsResolved, second.stats.alertsResolved);
    EXPECT_EQ(first.stats.alertTicksFiring,
              second.stats.alertTicksFiring);

    const auto off = serve::ServeScheduler(fw, unsampled).run(traces);
    EXPECT_EQ(digest(first), digest(off));
    EXPECT_EQ(off.stats.alertsFired, 0u);
    EXPECT_EQ(off.stats.alertTicksFiring, 0u);
}

TEST(Serve, DegradationRepricesWithoutStallingTenants)
{
    // One permanently dead bank trips quarantine mid-serve: the
    // scheduler must re-price queued work on the degraded geometry
    // (repriceEvents > 0), surface per-tenant fault bills, and keep
    // every tenant serving — one stream's fault storm cannot starve
    // the rest.
    const AnaheimFramework fw(faultyDeviceConfig());
    const auto traces = mixedTraces();
    const ServeConfig serve = resilientServeConfig();
    const auto result = serve::ServeScheduler(fw, serve).run(traces);

    EXPECT_GT(result.stats.repriceEvents, 0u);
    expectCausePartition(result, serve);
    uint64_t totalRetries = 0;
    for (const auto &stream : result.streams) {
        uint64_t done = 0;
        for (const auto &req : stream.requests)
            done += !req.rejected;
        EXPECT_GE(done, 1u); // every tenant kept serving
        totalRetries += stream.pimRetries + stream.rollbacks +
                        stream.gpuFallbacks + stream.migrations;
    }
    // The fault storm must actually be visible in the per-tenant bill.
    EXPECT_GT(totalRetries, 0u);
}

TEST(Serve, RunContextMatchesExecute)
{
    // The slimmed execute() IS the RunContext loop; pin the
    // equivalence (including fault/recovery state) against drift.
    AnaheimConfig config = AnaheimConfig::a100NearBank();
    config.resilience.ber = 1e-6;
    config.resilience.checksumEnabled = true;
    config.resilience.checkpoint.enabled = true;
    config.resilience.checkpoint.intervalSegments = 8;
    const AnaheimFramework fw(config);
    OpSequence seq = hmultTrace();
    seq.append(hmultTrace());

    const RunResult viaExecute = fw.execute(seq);
    RunContext ctx(fw, seq);
    while (!ctx.done())
        ctx.step();
    const RunResult viaContext = ctx.finish();

    EXPECT_EQ(viaExecute.totalNs, viaContext.totalNs);
    EXPECT_EQ(viaExecute.energyPj, viaContext.energyPj);
    EXPECT_EQ(viaExecute.gpuDramBytes, viaContext.gpuDramBytes);
    EXPECT_EQ(viaExecute.pimInternalBytes,
              viaContext.pimInternalBytes);
    EXPECT_EQ(viaExecute.resilience.faultyWords,
              viaContext.resilience.faultyWords);
    EXPECT_EQ(viaExecute.resilience.rollbacks,
              viaContext.resilience.rollbacks);
    EXPECT_EQ(viaExecute.resilience.checksumChecks,
              viaContext.resilience.checksumChecks);
    ASSERT_EQ(viaExecute.timeline.size(), viaContext.timeline.size());
    for (size_t e = 0; e < viaExecute.timeline.size(); ++e) {
        EXPECT_EQ(viaExecute.timeline[e].startNs,
                  viaContext.timeline[e].startNs);
        EXPECT_EQ(viaExecute.timeline[e].endNs,
                  viaContext.timeline[e].endNs);
        EXPECT_EQ(viaExecute.timeline[e].phase,
                  viaContext.timeline[e].phase);
        EXPECT_EQ(viaExecute.timeline[e].device,
                  viaContext.timeline[e].device);
    }
}

} // namespace
} // namespace anaheim
