/**
 * @file
 * The Anaheim execution framework (§V): takes a kernel trace, decides
 * which kernels run on the GPU and which are offloaded to PIM, inserts
 * the coherence write-backs of §V-C, and plays the schedule out on a
 * single stream (GPU and PIM kernels never overlap, §V-C "no
 * pipelining") against the GPU roofline and the PIM/DRAM simulator.
 */

#ifndef ANAHEIM_ANAHEIM_FRAMEWORK_H
#define ANAHEIM_ANAHEIM_FRAMEWORK_H

#include <map>
#include <string>
#include <vector>

#include "dram/scrub.h"
#include "gpu/gpumodel.h"
#include "pim/kernelmodel.h"
#include "sim/fault.h"
#include "sim/health.h"
#include "trace/kernel.h"

namespace anaheim {

struct FusionFlags {
    /** PAccum/CAccum formation — applied by the trace builders. */
    bool basicFuse = true;
    /** GPU-side producer-consumer fusion of element-wise chains
     *  (ModDown fusion of [38] and friends). */
    bool extraFuse = true;
    /** Automorphism fused into accumulation — applied by builders. */
    bool autFuse = true;
};

/** Segment-group checkpointing of the live ciphertext footprint. A
 *  snapshot every `intervalSegments` trace segments lets detected
 *  corruption (uncorrectable ECC, scrub hits, checksum mismatches)
 *  roll back and replay from the last clean state instead of
 *  abandoning the whole PIM segment to the GPU. */
struct CheckpointConfig {
    bool enabled = false;
    /** Trace segments (ops) between snapshots. */
    size_t intervalSegments = 16;
    /** Rollbacks allowed per run before corruption is surfaced as
     *  unrecovered (bounds replay storms on persistent faults). */
    size_t maxRollbacks = 8;
};

/**
 * Reliability knobs for the PIM datapath (§VI-A operand reads ride raw
 * DRAM arrays). With every rate at 0 and scrub / checksums /
 * checkpointing disabled (the defaults), the resilience machinery is
 * bypassed entirely and execution is bitwise identical to the
 * fault-free model.
 */
struct ResilienceConfig {
    /** Raw per-bit error probability per PIM codeword access on the
     *  storage sites (operand reads and result write-backs). */
    double ber = 0.0;
    /** Per-bit transient-flip probability per MMAC lane multiply on
     *  the 28-bit post-multiply datapath. No ECC reaches it: every
     *  lane fault is silent until a ciphertext checksum catches it. */
    double laneBer = 0.0;
    /** Per-bit retention-decay probability per refresh window for the
     *  resident ciphertext footprint. */
    double retentionBerPerWindow = 0.0;
    /** Fault-site seed; identical seeds reproduce identical runs. */
    uint64_t faultSeed = 0x0ddfa117u;
    /** On-die SEC-DED (39,32) at the PIM word-read boundary. Without
     *  it, faults go undetected (no retry/fallback, silent errors). */
    bool eccEnabled = true;
    /** Replays of a PIM segment after a detected-uncorrectable ECC
     *  event before recovering (checkpoint rollback when enabled,
     *  else GPU fallback). */
    size_t maxPimRetries = 2;
    /** Per-limb rolling checksums over the ciphertext residues,
     *  verified at coherence write-back boundaries. The only detector
     *  that sees lane faults and ECC-off corruption. */
    bool checksumEnabled = false;
    /** Periodic ECC scrub passes over the live footprint. */
    ScrubConfig scrub;
    /** Segment-group checkpoint / rollback replay. */
    CheckpointConfig checkpoint;

    /** Permanently failed banks injected into the run (in addition to
     *  the Monte-Carlo draw at `permanentBankRate`). Unlike transient
     *  upsets these fail every retry, every replay, every generation. */
    std::vector<PermanentBankFault> permanentBanks;
    /** Permanently broken MMAC lanes: silent corruption on every op
     *  (no ECC on the lane datapath; only checksums detect it). */
    std::vector<PermanentLaneFault> permanentLanes;
    /** Per-bank permanent-failure probability, sampled
     *  deterministically from `faultSeed` per physical bank. */
    double permanentBankRate = 0.0;
    /** Health monitoring + quarantine/remap policy. Disabled, a
     *  permanent fault burns the rollback budget and falls back to
     *  the GPU; enabled, repeated failures at one site quarantine it
     *  and execution migrates onto the healthy subset. */
    HealthConfig health;
};

/** Arrival process the serving scheduler (src/serve) drives streams
 *  with. */
enum class ArrivalKind {
    Closed,      ///< next request starts when the previous completes
    OpenPoisson, ///< open-loop Poisson arrivals at offeredRps
};

/** Streaming time-series telemetry for a serving run (DESIGN.md §17):
 *  the scheduler samples per-device and per-tenant series on a fixed
 *  simulated-time tick and feeds a fast/slow-window SLO burn-rate
 *  evaluator whose alert episodes land on the trace's `Alert` lane. */
struct ServeTelemetryConfig {
    /** Sampling tick, ns of simulated time; 0 disables telemetry
     *  entirely (the scheduler never touches the series registry). */
    double tickNs = 0.0;
    /** Deadline-met ratio objective the burn-rate alert guards. */
    double sloTarget = 0.95;
    /** Fast window, in ticks (catches sharp burns). */
    size_t fastWindowTicks = 3;
    /** Slow window, in ticks (filters single-tick blips). */
    size_t slowWindowTicks = 12;
    /** Burn rate BOTH windows must reach to fire (1.0 = burning the
     *  error budget exactly at the objective rate). */
    double burnThreshold = 1.0;
};

/** Multi-tenant serving knobs (src/serve, DESIGN.md §15/§16): how many
 *  client streams the scheduler admits, how requests arrive, and the
 *  batching / overlap / admission / SLO policies. */
struct ServeConfig {
    /** Concurrent client streams (tenants). */
    size_t streams = 8;
    ArrivalKind arrival = ArrivalKind::OpenPoisson;
    /** Aggregate offered load across all streams, requests/second of
     *  simulated time (split evenly per stream). */
    double offeredRps = 100.0;
    /** Requests generated per stream before the arrival process
     *  stops. */
    size_t requestsPerStream = 4;
    /** Seed for the deterministic Poisson arrival draws. */
    uint64_t arrivalSeed = 0x5eedca11u;
    /** Streams cycle through priority classes 0..priorityClasses-1
     *  (0 = highest); dispatch breaks start-time ties by class. */
    size_t priorityClasses = 1;
    /** Admission control: an arrival finding this many requests
     *  already waiting on its stream is rejected. */
    size_t maxQueuedPerStream = 64;
    /** Batch compatible element-wise PIM dispatches across streams
     *  (same opcode/degree/limbs/fan-in -> one fused kernel, the
     *  followers skip the GPU<->PIM transition). */
    bool batching = true;
    /** Clock GPU and PIM as independent resources so independent
     *  traces overlap; off = the serial back-to-back baseline. */
    bool overlap = true;

    // --- SLO / resilience policies (DESIGN.md §16) ---
    /** Relative completion deadline (ns of simulated time after
     *  arrival) every request carries; 0 disables deadline-based
     *  shedding. A queued request whose earliest-possible completion
     *  (dispatch time + fault-free service estimate) already misses
     *  its deadline is shed at dispatch instead of wasting device
     *  time on a guaranteed SLO violation. */
    double deadlineNs = 0.0;
    /** Per-class relative deadlines: stream s uses
     *  deadlineClassNs[s % size()] when non-empty (deadlineNs
     *  otherwise), mirroring the priority-class round-robin. A class
     *  entry of 0 leaves that stream deadline-free. */
    std::vector<double> deadlineClassNs = {};
    /** Token-bucket per-tenant rate limiter: sustained request rate
     *  (requests/second of simulated time) each stream may submit;
     *  0 disables. Arrivals finding the bucket empty are rejected
     *  before touching the queue. */
    double rateLimitRps = 0.0;
    /** Token-bucket burst capacity (maximum saved-up tokens). */
    double rateLimitBurst = 4.0;
    /** Priority preemption: ready work of a strictly higher priority
     *  class interrupts a started lower-priority run at its next step
     *  boundary. The victim's state is checkpoint-coordinated (its
     *  live footprint is snapshotted out and restored at resume,
     *  priced on the device like a §10 checkpoint), so the preempted
     *  run resumes bitwise-identically; candidate order becomes
     *  (priority, dispatch time) instead of (dispatch time,
     *  priority). */
    bool preemption = false;

    /** Time-series telemetry + burn-rate alerting (DESIGN.md §17). */
    ServeTelemetryConfig telemetry;
};

struct AnaheimConfig {
    GpuConfig gpu;
    LibraryProfile library;
    DramConfig dram;
    PimConfig pim;
    bool pimEnabled = true;
    FusionFlags fusion;
    ResilienceConfig resilience;
    ServeConfig serve;

    /** A100 80GB with near-bank PIM (Table III column 1). */
    static AnaheimConfig a100NearBank();
    /** A100 80GB with custom-HBM PIM (column 2). */
    static AnaheimConfig a100CustomHbm();
    /** RTX 4090 with near-bank PIM (column 3). */
    static AnaheimConfig rtx4090NearBank();
};

/** Fault/ECC/recovery counters accumulated over one execution. */
struct ResilienceStats {
    /** PIM codeword reads with >= 1 flipped bit. */
    uint64_t faultyWords = 0;
    /** Single-bit upsets repaired by SEC-DED (data exact). */
    uint64_t eccCorrected = 0;
    /** Detected-uncorrectable (double-bit) ECC events. */
    uint64_t eccUncorrectable = 0;
    /** Corrupt words delivered as clean (all faults with ECC off). */
    uint64_t silentErrors = 0;
    /** PIM segment replays triggered by uncorrectable events. */
    uint64_t pimRetries = 0;
    /** PIM segments abandoned to the GPU after retries ran out. */
    uint64_t gpuFallbacks = 0;
    /** MMAC lane multiplies hit by a post-multiply transient flip
     *  (always silent at the unit; only checksums can catch them). */
    uint64_t laneFaults = 0;
    /** Resident words hit by retention decay between refreshes. */
    uint64_t retentionFaultyWords = 0;
    /** Periodic scrub passes executed. */
    uint64_t scrubPasses = 0;
    /** Single-bit retention decays repaired in place by a scrub. */
    uint64_t scrubCorrected = 0;
    /** Uncorrectable (multi-bit) words surfaced by a scrub pass. */
    uint64_t scrubUncorrectable = 0;
    /** Ciphertext checksum verifications performed. */
    uint64_t checksumChecks = 0;
    /** Verifications that caught corrupt residues. */
    uint64_t checksumMismatches = 0;
    /** Checkpoint snapshots taken. */
    uint64_t checkpoints = 0;
    /** Rollbacks to the last checkpoint. */
    uint64_t rollbacks = 0;
    /** Trace segments re-executed by rollback replays. */
    uint64_t replayedSegments = 0;
    /** Detected corruption events with no recovery path left
     *  (checkpointing off or rollback budget exhausted). */
    uint64_t unrecovered = 0;

    // --- Permanent-fault / graceful-degradation counters ---
    /** Codeword accesses landing on permanently failed banks (fail
     *  deterministically on every attempt and generation). */
    uint64_t permanentFaultyWords = 0;
    /** Lane multiplies routed through permanently broken lanes. */
    uint64_t permanentLaneFaults = 0;
    /** Detected-error events fed to the health monitor. */
    uint64_t healthErrorEvents = 0;
    /** Banks / lanes quarantined by the health monitor this run. */
    uint64_t quarantinedBanks = 0;
    uint64_t quarantinedLanes = 0;
    /** Quarantine + remap + replay migrations (do not consume the
     *  rollback budget: the fault is removed, not retried). */
    uint64_t migrations = 0;
    /** gpuFallbacks split by cause; the three always sum to
     *  gpuFallbacks. retry_exhausted: ECC retries and rollback budget
     *  both spent. uncheckpointed: no checkpoint to replay from.
     *  capacity_floor: quarantine pushed healthy-bank capacity under
     *  ResilienceConfig::health.minCapacityFraction (or the degraded
     *  plan no longer fits), so PIM offload was abandoned. */
    uint64_t gpuFallbacksRetryExhausted = 0;
    uint64_t gpuFallbacksUncheckpointed = 0;
    uint64_t gpuFallbacksCapacityFloor = 0;
};

struct RunResult {
    double totalNs = 0.0;
    double energyPj = 0.0;
    /** Seconds by paper breakdown category (ElementWise / (I)NTT /
     *  BConv / Automorphism), PIM time listed under "PIM". */
    std::map<std::string, double> timeNsByCategory;
    double gpuDramBytes = 0.0;
    double pimInternalBytes = 0.0;
    ResilienceStats resilience;
    /** Healthy-bank fraction the run ended with (1.0 = no
     *  quarantine). */
    double pimCapacityFraction = 1.0;
    /** True when quarantine drove capacity under the configured floor
     *  and remaining PIM segments were redirected to the GPU. */
    bool pimOffline = false;
    std::vector<GanttEntry> timeline;

    double totalSeconds() const { return totalNs * 1e-9; }
    double energyJoules() const { return energyPj * 1e-12; }
    double edp() const { return totalSeconds() * energyJoules(); }
};

class AnaheimFramework
{
  public:
    explicit AnaheimFramework(const AnaheimConfig &config);

    const AnaheimConfig &config() const { return config_; }

    /** Execute a trace and return time/energy/traffic. Equivalent to
     *  stepping a RunContext to completion (runcontext.h); the serving
     *  scheduler interleaves several contexts instead. */
    RunResult execute(const OpSequence &seq) const;

    /** Map an element-wise kernel type onto its PIM opcode. */
    static PimOpcode opcodeFor(KernelType type);

  private:
    /** Per-run device state lives in RunContext, which replays the
     *  schedule against this framework's models. */
    friend class RunContext;

    AnaheimConfig config_;
    GpuModel gpu_;
    PimKernelModel pim_;
};

} // namespace anaheim

#endif // ANAHEIM_ANAHEIM_FRAMEWORK_H
