#include "runcontext.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/trace.h"
#include "planner.h"
#include "trace/validate.h"

namespace anaheim {

namespace {

/** Operand words a PIM op streams through its word-read boundary:
 *  every read operand limb, n words each. */
size_t
pimWordsRead(const KernelOp &op)
{
    size_t limbs = 0;
    for (const auto &operand : op.reads)
        limbs += operand.limbs;
    return std::max(limbs, op.limbs) * op.n;
}

/** Result words a PIM op pushes back through the write drivers. */
size_t
pimWordsWritten(const KernelOp &op)
{
    size_t limbs = 0;
    for (const auto &operand : op.writes)
        limbs += operand.limbs;
    return limbs * op.n;
}

/** Working/intermediate operand bytes of one op: the live ciphertext
 *  it touches (Evk / plaintext constants are reproducible from the keys
 *  and never need checkpointing or scrubbing). */
double
liveOperandBytes(const KernelOp &op)
{
    double bytes = 0.0;
    for (const auto &operand : op.reads) {
        if (operand.kind == OperandKind::Working ||
            operand.kind == OperandKind::Intermediate)
            bytes += operand.limbs * limbBytes(op.n);
    }
    for (const auto &operand : op.writes) {
        if (operand.kind == OperandKind::Working ||
            operand.kind == OperandKind::Intermediate)
            bytes += operand.limbs * limbBytes(op.n);
    }
    return bytes;
}

} // namespace

RunContext::RunContext(const AnaheimFramework &fw, const OpSequence &seq,
                       uint64_t seedSalt)
    : fw_(fw), config_(fw.config_), rc_(fw.config_.resilience), seq_(seq)
{
    OBS_SPAN("anaheim/run_context_init");
    // One walk over the trace: validity, the live footprint (the widest
    // op's) and where each op runs. An invalid trace is rejected
    // through checkTrace so the message names its first problem.
    // Nothing is cached on the sequence: its ops may change between
    // runs.
    if (!validateSequenceHeader(seq_))
        checkTrace(seq_);
    onPimFlags_.resize(seq_.ops.size());
    for (size_t i = 0; i < seq_.ops.size(); ++i) {
        const KernelOp &op = seq_.ops[i];
        if (!validateOp(op, seq_.n, i))
            checkTrace(seq_);
        liveBytes_ = std::max(liveBytes_, liveOperandBytes(op));
        onPimFlags_[i] =
            config_.pimEnabled && op.pimEligible &&
            pimInstrSupported(AnaheimFramework::opcodeFor(op.type),
                              op.fanIn, config_.pim.bufferEntries);
    }

    // Fault/ECC event model for the PIM datapath. Only constructed
    // when faults are configured: the all-rates-zero path is untouched.
    {
        FaultConfig faults;
        faults.ber = rc_.ber;
        faults.laneBer = rc_.laneBer;
        faults.retentionBerPerWindow = rc_.retentionBerPerWindow;
        faults.seed = rc_.faultSeed;
        faults.permanentBanks = rc_.permanentBanks;
        faults.permanentLanes = rc_.permanentLanes;
        faults.permanentBankRate = rc_.permanentBankRate;
        if (faults.enabled())
            faultModel_.emplace(faults);
    }

    // Permanent-fault universe and health monitoring. A failed site is
    // "active" while it still carries data; once the monitor
    // quarantines it and execution migrates, it stops corrupting.
    // Permanent damage is a device property: it does NOT depend on the
    // stream salt, so concurrent requests see the same broken banks.
    totalBanks_ = config_.pim.banksPerDieGroup * config_.pim.dieGroups;
    if (faultModel_) {
        for (const PermanentBankFault &bank :
             faultModel_->samplePermanentBanks(
                 config_.pim.dieGroups, config_.pim.banksPerDieGroup))
            failedBankSites_.push_back(
                {FaultSiteId::Kind::Bank, bank.dieGroup, bank.bank});
        for (const PermanentLaneFault &lane :
             faultModel_->config().permanentLanes) {
            if (lane.dieGroup < config_.pim.dieGroups &&
                lane.lane < config_.pim.lanes)
                failedLaneSites_.push_back({FaultSiteId::Kind::MmacLane,
                                            lane.dieGroup, lane.lane});
        }
    }
    if (rc_.health.enabled)
        health_.emplace(rc_.health, config_.pim.dieGroups,
                        config_.pim.banksPerDieGroup, config_.pim.lanes);
    refreshActiveFaults();

    // Stream ids keep every (generation, op, retry attempt) draw
    // distinct while staying reproducible across runs with the same
    // seed. Generation 0 reproduces the pre-checkpoint stream layout;
    // each rollback bumps the generation so replayed segments resample
    // their transient faults. The salt shifts a whole run onto its own
    // stream range so interleaved requests draw independent upsets.
    retryStreams_ = static_cast<uint64_t>(rc_.maxPimRetries) + 1;
    opStreams_ = static_cast<uint64_t>(seq_.ops.size()) + 1;
    streamBase_ = seedSalt * 0x9E3779B97F4A7C15ULL;

    checksumOn_ = rc_.checksumEnabled;
    if (rc_.scrub.enabled)
        scrubber_.emplace(config_.dram, rc_.scrub);
    // GB/s is bytes-per-ns at the 1e9 scale, so bytes / bw is ns.
    extBw_ = config_.dram.externalBwGBs;
    residentWords_ = static_cast<size_t>(liveBytes_ / 4.0);
    windowNs_ = static_cast<double>(config_.dram.timing.tREFI) *
                config_.dram.timing.tCkNs;
    nextScrubNs_ = scrubber_ ? rc_.scrub.intervalNs : 0.0;
    // One entry per op on a fault-free run; recovery actions and
    // fallbacks may grow it once more.
    result_.timeline.reserve(seq_.ops.size());
}

const PimKernelModel &
RunContext::pimModel() const
{
    return degradedPim_ ? *degradedPim_ : fw_.pim_;
}

bool
RunContext::fusesWithPrev(size_t i) const
{
    // ModSwitch chains (INTT -> BConv -> NTT) fuse unconditionally as
    // in Cheddar/100x [38]; element-wise chains need the ExtraFuse flag
    // (the +ExtraFuse arm of Fig. 10).
    if (i == 0 || onPimFlags_[i] || onPimFlags_[i - 1])
        return false;
    const KernelOp &op = seq_.ops[i];
    const KernelOp &prev = seq_.ops[i - 1];
    if (prev.phase != op.phase)
        return false;
    bool readsIntermediate = false;
    for (const auto &operand : op.reads)
        readsIntermediate |= operand.kind == OperandKind::Intermediate;
    if (!readsIntermediate)
        return false;
    const bool elementWiseChain =
        kernelClass(op.type) == KernelClass::ElementWise &&
        kernelClass(prev.type) == KernelClass::ElementWise;
    return elementWiseChain ? config_.fusion.extraFuse : true;
}

void
RunContext::refreshActiveFaults()
{
    activeFailedBanks_ = 0;
    activeFailedLanes_ = 0;
    for (const FaultSiteId &site : failedBankSites_)
        activeFailedBanks_ +=
            health_ && health_->isQuarantined(site) ? 0 : 1;
    for (const FaultSiteId &site : failedLaneSites_)
        activeFailedLanes_ +=
            health_ && health_->isQuarantined(site) ? 0 : 1;
}

void
RunContext::charge(std::string_view phase, Lane device, double durNs,
                   double energyPj, BoundBy bound, KernelClass cls)
{
    // A negative or NaN duration would move the clock backwards or
    // poison it, and append order would no longer be clock order.
    ANAHEIM_ASSERT(durNs >= 0.0, "charged duration must be >= 0, got ",
                   durNs, " for ", phase);
    GanttEntry &entry = result_.timeline.emplace_back();
    entry.phase = phase;
    entry.device = device;
    entry.startNs = clock_;
    clock_ += durNs;
    entry.endNs = clock_;
    entry.energyPj = energyPj;
    entry.cls = cls;
    entry.bound = bound;
    // The duration itself, not endNs - startNs, so category totals are
    // the exact sums of what each step charged, in charge order.
    const std::string_view category = breakdownCategory(entry);
    auto it = categoryNs_.begin();
    while (it != categoryNs_.end() && it->first != category)
        ++it;
    if (it == categoryNs_.end())
        it = categoryNs_.emplace(it, category, 0.0);
    it->second += durNs;
    result_.energyPj += energyPj;
}

void
RunContext::chargeGpu(const KernelOp &op, const GpuKernelStats &stats)
{
    charge(op.phase, Lane::GPU, stats.timeNs, stats.energyPj,
           stats.memoryBound() ? BoundBy::Bandwidth : BoundBy::Compute,
           kernelClass(op.type));
    result_.gpuDramBytes += stats.traffic.total();
}

void
RunContext::chargeFootprintPass(const char *phase)
{
    charge(phase, Lane::DRAM, footprintPassNs(),
           2.0 * liveBytes_ * config_.dram.energy.globalIoPerBytePj);
}

void
RunContext::addSilent(uint64_t words)
{
    if (words == 0)
        return;
    if (checksumOn_)
        pendingSilent_ += words;
    else
        result_.resilience.silentErrors += words;
}

bool
RunContext::canRollBack() const
{
    // Whether a rollback is still available (vs surfacing the event as
    // unrecovered / falling back to the GPU).
    return rc_.checkpoint.enabled &&
           result_.resilience.rollbacks < rc_.checkpoint.maxRollbacks;
}

size_t
RunContext::rollBack(size_t i)
{
    // Roll back to the last checkpoint: restore the live footprint from
    // the snapshot region, drop all in-flight corruption, and resample
    // the replayed segments' faults under a new generation.
    ++result_.resilience.rollbacks;
    ++generation_;
    result_.resilience.replayedSegments += i - checkpointIndex_;
    chargeFootprintPass("Rollback");
    pendingSilent_ = 0;
    pendingRetCorrectable_ = 0;
    pendingRetUncorrectable_ = 0;
    segmentsSinceCkpt_ = 0;
    prevWasPim_ = false;
    return checkpointIndex_;
}

bool
RunContext::verifyChecksums(double bytes)
{
    // Verify the ciphertext checksums over `bytes` of residues; true
    // when the data is clean.
    ++result_.resilience.checksumChecks;
    charge("Verify", Lane::GPU, bytes / extBw_,
           bytes * config_.dram.energy.nearBankPerBytePj);
    if (pendingSilent_ + pendingRetUncorrectable_ == 0)
        return true;
    ++result_.resilience.checksumMismatches;
    return false;
}

void
RunContext::surfaceUnrecovered()
{
    ++result_.resilience.unrecovered;
    pendingSilent_ = 0;
    pendingRetUncorrectable_ = 0;
}

void
RunContext::countFallback(FallbackCause cause)
{
    ++result_.resilience.gpuFallbacks;
    switch (cause) {
      case FallbackCause::RetryExhausted:
        ++result_.resilience.gpuFallbacksRetryExhausted;
        break;
      case FallbackCause::Uncheckpointed:
        ++result_.resilience.gpuFallbacksUncheckpointed;
        break;
      case FallbackCause::CapacityFloor:
        ++result_.resilience.gpuFallbacksCapacityFloor;
        break;
    }
}

bool
RunContext::recordSuspects(bool banks, bool lanes)
{
    // Feed a detected error to the health monitor against every still-
    // active permanently failed site that could have caused it (the
    // detector cannot localize beyond that). Returns true when a site
    // newly crossed the permanent threshold — the caller migrates.
    // Pure transients leave the suspect set empty, so healthy banks
    // are never quarantined by an upset storm.
    if (!health_)
        return false;
    bool newlyQuarantined = false;
    if (banks) {
        for (const FaultSiteId &site : failedBankSites_)
            newlyQuarantined |= health_->recordError(site, clock_);
    }
    if (lanes) {
        for (const FaultSiteId &site : failedLaneSites_)
            newlyQuarantined |= health_->recordError(site, clock_);
    }
    return newlyQuarantined;
}

size_t
RunContext::quarantineAndMigrate(size_t next, size_t resumeAt)
{
    // Quarantine + remap: re-plan the trace on the healthy subset,
    // migrate the live footprint onto it, and resume — from the last
    // checkpoint when one exists (the segment group replays on the
    // degraded device), else from `resumeAt`. Does NOT consume the
    // rollback budget: the broken site is being removed, not retried.
    // When quarantine leaves too little capacity (the configured floor,
    // or the degraded plan no longer fits), PIM offload is abandoned
    // and the remaining PIM segments are redirected to the GPU.
    ++result_.resilience.migrations;
    const ResourceMap &rm = health_->resources();
    refreshActiveFaults();
    ++generation_; // replays resample their transient faults
    // Control-plane cost: remap tables + lockstep re-fusing.
    charge("Quarantine", Lane::DRAM, 1.0e3, 0.0);
    const PimConfig degraded = config_.pim.degraded(rm);
    const MemoryPlan degradedPlan =
        PimMemoryPlanner(config_.dram, degraded).plan(seq_);
    if (health_->belowCapacityFloor() || !degradedPlan.fits) {
        pimOffline_ = true;
        degradedPim_.reset();
    } else {
        degradedPim_.emplace(config_.dram, degraded);
        // One pass over the live footprint into the new layout.
        chargeFootprintPass("Migrate");
    }
    pendingSilent_ = 0;
    pendingRetCorrectable_ = 0;
    pendingRetUncorrectable_ = 0;
    segmentsSinceCkpt_ = 0;
    prevWasPim_ = false;
    if (rc_.checkpoint.enabled) {
        result_.resilience.replayedSegments += next - checkpointIndex_;
        return checkpointIndex_;
    }
    return resumeAt;
}

void
RunContext::advanceClockTo(double ns)
{
    ANAHEIM_ASSERT(ns >= clock_, "run clock cannot move backwards");
    clock_ = ns;
}

const KernelOp *
RunContext::nextOp() const
{
    return i_ < seq_.ops.size() ? &seq_.ops[i_] : nullptr;
}

bool
RunContext::nextOnPim() const
{
    return i_ < seq_.ops.size() && onPimFlags_[i_] && !pimOffline_;
}

const char *
RunContext::nextDevice() const
{
    return nextOnPim() ? "PIM" : "GPU";
}

bool
RunContext::nextCostFree() const
{
    return i_ >= seq_.ops.size() && !checksumOn_;
}

void
RunContext::stepEndOfTrace()
{
    // End-of-trace boundary: the final outputs get one last
    // verification before they are decrypted.
    if (checksumOn_) {
        if (!verifyChecksums(liveBytes_)) {
            if (recordSuspects(!rc_.eccEnabled, true) &&
                rc_.checkpoint.enabled) {
                i_ = quarantineAndMigrate(i_, i_);
                return;
            }
            if (canRollBack()) {
                i_ = rollBack(i_);
                return;
            }
            surfaceUnrecovered();
        }
    }
    finished_ = true;
}

bool
RunContext::runMaintenance()
{
    ResilienceStats &res = result_.resilience;
    // Retention decay accumulates on the resident footprint per
    // crossed refresh window; windows are keyed by absolute index,
    // so replays never resample a window already paid for.
    if (faultModel_ && rc_.retentionBerPerWindow > 0.0 &&
        windowNs_ > 0.0) {
        const uint64_t window =
            static_cast<uint64_t>(clock_ / windowNs_);
        while (retentionWindow_ < window) {
            ++retentionWindow_;
            const FaultEventCounts decay = faultModel_->sampleRetention(
                retentionWindow_, residentWords_);
            res.retentionFaultyWords += decay.faulty;
            if (!rc_.eccEnabled) {
                // Raw arrays: decay is indistinguishable from data.
                addSilent(decay.faulty);
            } else {
                pendingRetCorrectable_ += decay.singleBit;
                pendingRetUncorrectable_ += decay.multiBit;
            }
        }
    }
    if (scrubber_ && clock_ >= nextScrubNs_) {
        // One pass covers every missed interval (a long GPU kernel
        // may straddle several).
        while (clock_ >= nextScrubNs_)
            nextScrubNs_ += rc_.scrub.intervalNs;
        ++res.scrubPasses;
        const ScrubPassStats pass = scrubber_->pass(liveBytes_);
        charge("Scrub", Lane::DRAM, pass.timeNs, pass.energyPj);
        res.scrubCorrected += pendingRetCorrectable_;
        pendingRetCorrectable_ = 0;
        if (pendingRetUncorrectable_ > 0) {
            res.scrubUncorrectable += pendingRetUncorrectable_;
            pendingRetUncorrectable_ = 0;
            if (canRollBack()) {
                i_ = rollBack(i_);
                return true;
            }
            surfaceUnrecovered();
        }
    }
    if (rc_.checkpoint.enabled && i_ > checkpointIndex_ &&
        segmentsSinceCkpt_ >= rc_.checkpoint.intervalSegments) {
        // Verify before snapshotting: never checkpoint corrupt
        // state, or rollback would replay the corruption forever.
        if (checksumOn_ && !verifyChecksums(liveBytes_)) {
            if (recordSuspects(!rc_.eccEnabled, true)) {
                i_ = quarantineAndMigrate(i_, i_);
                return true;
            }
            if (canRollBack()) {
                i_ = rollBack(i_);
                return true;
            }
            surfaceUnrecovered();
            segmentsSinceCkpt_ = 0; // retry next interval
        } else {
            ++res.checkpoints;
            chargeFootprintPass("Checkpoint");
            checkpointIndex_ = i_;
            segmentsSinceCkpt_ = 0;
        }
    }
    return false;
}

void
RunContext::stepPim(const KernelOp &op, bool suppressTransition)
{
    ResilienceStats &res = result_.resilience;
    const PimExecStats stats = pimModel().execute(
        AnaheimFramework::opcodeFor(op.type), op.fanIn, op.limbs, op.n);
    ANAHEIM_ASSERT(stats.supported, "unsupported PIM instruction");
    // GPU<->PIM transition overhead (§V-C) applies once per PIM
    // kernel; consecutive PIM instructions share one kernel, and a
    // batched follower rides the leader's launch.
    const double transitionNs =
        prevWasPim_ || suppressTransition ? 0.0 : 2.0e3;

    // One initial attempt, plus replays charged at full price
    // for every detected-uncorrectable ECC event; when the
    // retry budget runs out, roll back to the last checkpoint
    // if one is available, else fall back to the GPU (§VI-A
    // datapath riding raw DRAM arrays).
    double pimNs = stats.timeNs + transitionNs;
    double pimEnergyPj = stats.energyPj;
    double pimChunks = stats.chunksMoved;
    bool fellBack = false;
    FallbackCause cause = FallbackCause::RetryExhausted;
    bool needRollback = false;
    bool needMigrate = false;
    if (faultModel_) {
        const uint64_t opStream =
            streamBase_ + generation_ * opStreams_ + i_;
        // Permanent-bank damage is deterministic: the same
        // share of the op's accesses lands on dead banks on
        // every attempt and every generation — only a remap
        // (or retirement of the banks) makes it go away.
        const size_t words = pimWordsRead(op) + pimWordsWritten(op);
        const uint64_t permWords = permanentFaultyWords(
            words, activeFailedBanks_, totalBanks_);
        if (rc_.ber > 0.0 || permWords > 0) {
            // Storage sites: operand reads plus the result
            // write-back ride the same ECC boundary.
            for (uint64_t attempt = 0;; ++attempt) {
                const FaultEventCounts events = faultModel_->sampleEvents(
                    words, opStream * retryStreams_ + attempt);
                res.faultyWords += events.faulty + permWords;
                res.permanentFaultyWords += permWords;
                if (!rc_.eccEnabled) {
                    // Nothing at the word boundary detects the
                    // corruption: no retry signal; checksums
                    // are the only remaining net.
                    addSilent(events.faulty + permWords);
                    break;
                }
                res.eccCorrected += events.singleBit;
                const uint64_t multi = events.multiBit + permWords;
                if (multi == 0)
                    break;
                res.eccUncorrectable += multi;
                if (attempt >= rc_.maxPimRetries) {
                    // Escalation past the retry budget: a site
                    // crossing the permanent threshold is
                    // quarantined and execution migrates off
                    // it; otherwise roll back while the budget
                    // lasts, else abandon the segment to the
                    // GPU.
                    if (permWords > 0 && recordSuspects(true, false)) {
                        needMigrate = true;
                    } else if (canRollBack()) {
                        needRollback = true;
                    } else {
                        fellBack = true;
                        cause = rc_.checkpoint.enabled
                                    ? FallbackCause::RetryExhausted
                                    : FallbackCause::Uncheckpointed;
                    }
                    break;
                }
                ++res.pimRetries;
                pimNs += stats.timeNs;
                pimEnergyPj += stats.energyPj;
                pimChunks += stats.chunksMoved;
            }
        }
        if ((rc_.laneBer > 0.0 || activeFailedLanes_ > 0) &&
            !needRollback && !fellBack && !needMigrate) {
            // Post-multiply lane flips: no ECC reaches the
            // 28-bit datapath, so every hit is silent here.
            // Dead lanes corrupt their share of every op's
            // multiplies the same way — deterministically.
            const size_t laneOps = static_cast<size_t>(op.modMults());
            const FaultEventCounts lane =
                faultModel_->sampleLaneEvents(laneOps, opStream);
            const uint64_t permLane = permanentFaultyWords(
                laneOps, activeFailedLanes_, config_.pim.lanes);
            res.laneFaults += lane.faulty + permLane;
            res.permanentLaneFaults += permLane;
            addSilent(lane.faulty + permLane);
        }
    }

    // Near-bank PIM time is internal-streaming limited by
    // construction (§VI-A all-bank lockstep).
    charge(op.phase, Lane::PIM, pimNs, pimEnergyPj, BoundBy::Bandwidth,
           kernelClass(op.type));
    result_.pimInternalBytes += pimChunks * config_.dram.chunkBytes;
    prevWasPim_ = true;

    if (needMigrate) {
        // Quarantine + remap + replay. Without a checkpoint
        // only op i re-runs — its operands are intact, since
        // failed attempts never commit.
        i_ = quarantineAndMigrate(i_ + 1, i_);
        return;
    }
    if (needRollback) {
        // Replay the whole segment group from the snapshot —
        // op i included, hence the +1 before rewinding.
        i_ = rollBack(i_ + 1);
        return;
    }
    if (fellBack) {
        // The segment's PIM result is untrustworthy even after
        // the replays: re-run it on the GPU (unfused — its
        // operands live in DRAM, not the cache).
        countFallback(cause);
        chargeGpu(op, fw_.gpu_.run(op));
        prevWasPim_ = false;
    } else if (checksumOn_ && i_ + 1 < seq_.ops.size() &&
               !onPimFlags_[i_ + 1]) {
        // Coherence write-back boundary (§V-C): the GPU is
        // about to consume this segment's outputs — verify
        // their checksums before corruption can propagate.
        if (!verifyChecksums(op.writeBytes())) {
            // Checksums are the only detector that sees dead
            // lanes (and dead banks with ECC off): those sites
            // are the permanent suspects here.
            if (recordSuspects(!rc_.eccEnabled, true)) {
                if (rc_.checkpoint.enabled) {
                    i_ = quarantineAndMigrate(i_ + 1, i_);
                    return;
                }
                // Quarantine stops future corruption, but the
                // committed outputs are already lost without a
                // snapshot to replay from.
                surfaceUnrecovered();
                i_ = quarantineAndMigrate(i_ + 1, i_ + 1);
                return;
            }
            if (canRollBack()) {
                i_ = rollBack(i_ + 1);
                return;
            }
            surfaceUnrecovered();
        }
    }
    ++i_;
    ++segmentsSinceCkpt_;
}

void
RunContext::stepGpu(const KernelOp &op)
{
    // PIM-eligible ops arriving after the capacity floor tripped
    // are redirected here; each redirection is a counted fallback.
    if (onPimFlags_[i_] && pimOffline_)
        countFallback(FallbackCause::CapacityFloor);

    const bool fused = fusesWithPrev(i_);
    const bool writesCached =
        i_ + 1 < seq_.ops.size() && fusesWithPrev(i_ + 1);

    // Coherence write-backs (§V-C): a GPU kernel whose outputs feed
    // a PIM kernel must push them out of the L2 first.
    double writeBack = 0.0;
    if (config_.pimEnabled && !pimOffline_ && i_ + 1 < seq_.ops.size() &&
        onPimFlags_[i_ + 1]) {
        for (const auto &operand : op.writes) {
            if (operand.kind == OperandKind::Intermediate)
                writeBack += operand.limbs * limbBytes(op.n);
        }
    }

    prevWasPim_ = false;
    chargeGpu(op, fw_.gpu_.run(op, fused, writeBack, writesCached));
    ++i_;
    ++segmentsSinceCkpt_;
}

void
RunContext::step(bool suppressTransition)
{
    ANAHEIM_ASSERT(!finished_, "step() after the run completed");
    if (i_ >= seq_.ops.size()) {
        stepEndOfTrace();
        return;
    }
    // --- Time-driven maintenance ahead of op i ---
    if (runMaintenance())
        return; // a recovery action rewound the trace
    const KernelOp &op = seq_.ops[i_];
    if (onPimFlags_[i_] && !pimOffline_)
        stepPim(op, suppressTransition);
    else
        stepGpu(op);
}

RunResult
RunContext::finish()
{
    ANAHEIM_ASSERT(finished_, "finish() before the run completed");
    if (health_) {
        ResilienceStats &res = result_.resilience;
        res.healthErrorEvents = health_->errorEvents();
        res.quarantinedBanks = health_->resources().quarantinedBanks();
        res.quarantinedLanes = health_->resources().quarantinedLanes();
        result_.pimCapacityFraction = health_->capacityFraction();
    }
    result_.pimOffline = pimOffline_;
    for (const auto &[category, ns] : categoryNs_)
        result_.timeNsByCategory.emplace(category, ns);
    // The timeline needs no sort: charge() appends at the clock and
    // the clock only moves forward, so append order is time order.
    result_.totalNs = clock_;
    return std::move(result_);
}

} // namespace anaheim
