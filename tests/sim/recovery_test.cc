/**
 * @file
 * Detect-and-recover tests for AnaheimFramework::execute: periodic ECC
 * scrub passes, segment-group checkpointing, checksum-mismatch and
 * retry-exhaustion rollbacks, the bounded-replay budget, and the
 * pinned-counter regression backing the fault-campaign smoke cell.
 */

#include <gtest/gtest.h>

#include <string>

#include "anaheim/framework.h"
#include "anaheim/workloads.h"

namespace anaheim {
namespace {

class RecoveryTest : public ::testing::Test
{
  protected:
    static OpSequence
    chainedHMult(size_t repeats)
    {
        OpSequence seq = buildHMult(TraceParams{});
        const OpSequence one = seq;
        for (size_t r = 1; r < repeats; ++r)
            seq.append(one);
        seq.name = "hmult_chain";
        return seq;
    }

    static size_t
    countPhase(const RunResult &result, const std::string &phase)
    {
        size_t n = 0;
        for (const auto &entry : result.timeline)
            n += entry.phase == phase;
        return n;
    }

    static RunResult
    cleanRun(const OpSequence &seq)
    {
        return AnaheimFramework(AnaheimConfig::a100NearBank()).execute(seq);
    }
};

TEST_F(RecoveryTest, ScrubCadenceChargesTimeAndEnergy)
{
    const OpSequence seq = chainedHMult(2);
    const RunResult clean = cleanRun(seq);

    AnaheimConfig config = AnaheimConfig::a100NearBank();
    config.resilience.scrub.enabled = true;
    config.resilience.scrub.intervalNs = clean.totalNs / 8.0;
    const RunResult run = AnaheimFramework(config).execute(seq);

    EXPECT_GT(run.resilience.scrubPasses, 3u);
    EXPECT_EQ(countPhase(run, "Scrub"), run.resilience.scrubPasses);
    EXPECT_GT(run.timeNsByCategory.at("Scrub"), 0.0);
    EXPECT_GT(run.totalNs, clean.totalNs);
    EXPECT_GT(run.energyPj, clean.energyPj);
    // Fault-free data: a scrub finds nothing to repair or surface.
    EXPECT_EQ(run.resilience.scrubCorrected, 0u);
    EXPECT_EQ(run.resilience.scrubUncorrectable, 0u);
    EXPECT_EQ(run.resilience.unrecovered, 0u);
}

TEST_F(RecoveryTest, CheckpointCadenceFollowsInterval)
{
    const OpSequence seq = chainedHMult(3);
    AnaheimConfig config = AnaheimConfig::a100NearBank();
    config.resilience.checkpoint.enabled = true;
    config.resilience.checkpoint.intervalSegments = 4;
    const RunResult run = AnaheimFramework(config).execute(seq);

    EXPECT_GT(run.resilience.checkpoints, 0u);
    EXPECT_EQ(countPhase(run, "Checkpoint"), run.resilience.checkpoints);
    EXPECT_LE(run.resilience.checkpoints, seq.ops.size() / 4);
    EXPECT_GT(run.timeNsByCategory.at("Checkpoint"), 0.0);
    // Nothing ever went wrong, so snapshots are the only new activity.
    EXPECT_EQ(run.resilience.rollbacks, 0u);
    EXPECT_EQ(run.resilience.replayedSegments, 0u);
    EXPECT_EQ(run.resilience.unrecovered, 0u);
}

TEST_F(RecoveryTest, CleanRunWithFullMachineryVerifiesWithoutMismatch)
{
    const OpSequence seq = chainedHMult(2);
    const RunResult clean = cleanRun(seq);

    AnaheimConfig config = AnaheimConfig::a100NearBank();
    config.resilience.checksumEnabled = true;
    config.resilience.scrub.enabled = true;
    config.resilience.scrub.intervalNs = clean.totalNs / 4.0;
    config.resilience.checkpoint.enabled = true;
    config.resilience.checkpoint.intervalSegments = 8;
    const RunResult run = AnaheimFramework(config).execute(seq);

    // Every verification pass shows up in the timeline, including the
    // end-of-trace one, and none of them finds anything.
    EXPECT_GT(run.resilience.checksumChecks, 0u);
    EXPECT_EQ(countPhase(run, "Verify"), run.resilience.checksumChecks);
    EXPECT_EQ(run.resilience.checksumMismatches, 0u);
    EXPECT_EQ(run.resilience.rollbacks, 0u);
    EXPECT_EQ(run.resilience.gpuFallbacks, 0u);
    EXPECT_EQ(run.resilience.unrecovered, 0u);
    EXPECT_GT(run.totalNs, clean.totalNs); // detection is not free
}

TEST_F(RecoveryTest, LaneChecksumMismatchRollsBackAndRecovers)
{
    // Lane flips are silent at the unit: only the ciphertext checksum
    // at a write-back boundary can catch them, and only a checkpoint
    // rollback can repair them.
    const OpSequence seq = chainedHMult(3);
    AnaheimConfig config = AnaheimConfig::a100NearBank();
    config.resilience.laneBer = 2e-9;
    config.resilience.checksumEnabled = true;
    config.resilience.checkpoint.enabled = true;
    config.resilience.checkpoint.intervalSegments = 2;
    config.resilience.checkpoint.maxRollbacks = 64;
    const RunResult run = AnaheimFramework(config).execute(seq);

    EXPECT_GT(run.resilience.laneFaults, 0u);
    EXPECT_GT(run.resilience.checksumMismatches, 0u);
    EXPECT_GT(run.resilience.rollbacks, 0u);
    EXPECT_EQ(countPhase(run, "Rollback"), run.resilience.rollbacks);
    EXPECT_GE(run.resilience.replayedSegments, run.resilience.rollbacks);
    // Every detected corruption was replayed away: nothing leaked.
    EXPECT_EQ(run.resilience.unrecovered, 0u);
    EXPECT_EQ(run.resilience.gpuFallbacks, 0u);
    EXPECT_EQ(run.resilience.silentErrors, 0u);
}

TEST_F(RecoveryTest, RetryExhaustionRollsBackWhenCheckpointed)
{
    // With a zero retry budget every detected-uncorrectable ECC event
    // immediately escalates; a checkpoint turns what used to be a GPU
    // fallback into a bounded replay.
    const OpSequence seq = chainedHMult(2);
    AnaheimConfig config = AnaheimConfig::a100NearBank();
    config.resilience.ber = 5e-6;
    config.resilience.maxPimRetries = 0;
    config.resilience.checkpoint.enabled = true;
    config.resilience.checkpoint.intervalSegments = 2;
    config.resilience.checkpoint.maxRollbacks = 64;
    const RunResult run = AnaheimFramework(config).execute(seq);

    EXPECT_GT(run.resilience.eccUncorrectable, 0u);
    EXPECT_EQ(run.resilience.pimRetries, 0u);
    EXPECT_GT(run.resilience.rollbacks, 0u);
    EXPECT_EQ(run.resilience.gpuFallbacks, 0u);
    EXPECT_EQ(run.resilience.unrecovered, 0u);
    EXPECT_EQ(countPhase(run, "Rollback"), run.resilience.rollbacks);
}

TEST_F(RecoveryTest, RollbackBudgetBoundsReplayStorms)
{
    // At BER 1e-3 every attempt sees multi-bit events with near
    // certainty, so replays can never succeed: the budget must cap the
    // storm and hand the remaining segments to the GPU.
    const OpSequence seq = chainedHMult(2);
    AnaheimConfig config = AnaheimConfig::a100NearBank();
    config.resilience.ber = 1e-3;
    config.resilience.checkpoint.enabled = true;
    config.resilience.checkpoint.intervalSegments = 4;
    config.resilience.checkpoint.maxRollbacks = 3;
    const RunResult run = AnaheimFramework(config).execute(seq);

    EXPECT_EQ(run.resilience.rollbacks, 3u);
    EXPECT_EQ(countPhase(run, "Rollback"), 3u);
    // Once the budget is spent the old policy takes over.
    EXPECT_GT(run.resilience.gpuFallbacks, 0u);
}

TEST_F(RecoveryTest, GpuFallbackPathIsStableAtFixedSeed)
{
    // Satellite check on the pre-existing fallback branch: with
    // checkpointing off, retry exhaustion still abandons the segment
    // to the GPU, reproducibly at a fixed fault seed.
    const OpSequence seq = buildHMult(TraceParams{});
    AnaheimConfig config = AnaheimConfig::a100NearBank();
    config.resilience.ber = 1e-3;
    config.resilience.faultSeed = 20260806;
    const RunResult a = AnaheimFramework(config).execute(seq);
    const RunResult b = AnaheimFramework(config).execute(seq);

    EXPECT_GT(a.resilience.gpuFallbacks, 0u);
    EXPECT_EQ(a.resilience.rollbacks, 0u);
    EXPECT_EQ(a.resilience.gpuFallbacks, b.resilience.gpuFallbacks);
    EXPECT_EQ(a.resilience.pimRetries, b.resilience.pimRetries);
    EXPECT_DOUBLE_EQ(a.totalNs, b.totalNs);
    // Each fallback re-runs its segment as a GPU timeline entry.
    size_t gpuEntries = 0;
    for (const auto &entry : a.timeline)
        gpuEntries += entry.device == Lane::GPU;
    const RunResult clean = cleanRun(seq);
    size_t cleanGpuEntries = 0;
    for (const auto &entry : clean.timeline)
        cleanGpuEntries += entry.device == Lane::GPU;
    EXPECT_EQ(gpuEntries, cleanGpuEntries + a.resilience.gpuFallbacks);
}

TEST_F(RecoveryTest, IdenticalSeedsReproduceIdenticalRecoveryRuns)
{
    const OpSequence seq = chainedHMult(2);
    auto run = [&](uint64_t seed) {
        AnaheimConfig config = AnaheimConfig::a100NearBank();
        config.resilience.ber = 1e-5;
        config.resilience.laneBer = 1e-10;
        config.resilience.retentionBerPerWindow = 1e-7;
        config.resilience.faultSeed = seed;
        config.resilience.checksumEnabled = true;
        config.resilience.scrub.enabled = true;
        config.resilience.scrub.intervalNs = 50.0e3;
        config.resilience.checkpoint.enabled = true;
        config.resilience.checkpoint.intervalSegments = 8;
        config.resilience.checkpoint.maxRollbacks = 32;
        return AnaheimFramework(config).execute(seq);
    };
    const RunResult a = run(7);
    const RunResult b = run(7);
    const RunResult c = run(8);

    EXPECT_DOUBLE_EQ(a.totalNs, b.totalNs);
    EXPECT_DOUBLE_EQ(a.energyPj, b.energyPj);
    EXPECT_EQ(a.resilience.faultyWords, b.resilience.faultyWords);
    EXPECT_EQ(a.resilience.laneFaults, b.resilience.laneFaults);
    EXPECT_EQ(a.resilience.retentionFaultyWords,
              b.resilience.retentionFaultyWords);
    EXPECT_EQ(a.resilience.scrubPasses, b.resilience.scrubPasses);
    EXPECT_EQ(a.resilience.checkpoints, b.resilience.checkpoints);
    EXPECT_EQ(a.resilience.rollbacks, b.resilience.rollbacks);
    EXPECT_EQ(a.resilience.checksumMismatches,
              b.resilience.checksumMismatches);
    EXPECT_EQ(a.timeline.size(), b.timeline.size());
    EXPECT_NE(a.resilience.faultyWords, c.resilience.faultyWords);
}

TEST_F(RecoveryTest, CampaignSmokeCellRegression)
{
    // The exact configuration of bench_fault_campaign --smoke's
    // recovering cell (ber 1e-5, scrub 50us, checkpoint every 8), first
    // trial. Counters are pinned: any change to the fault streams, the
    // maintenance cadence or the recovery policy must show up here.
    const OpSequence seq = chainedHMult(4);
    AnaheimConfig config = AnaheimConfig::a100NearBank();
    config.resilience.ber = 1e-5;
    config.resilience.laneBer = 1e-10;
    config.resilience.retentionBerPerWindow = 1e-7;
    config.resilience.faultSeed = 0x0ddfa117u;
    config.resilience.checksumEnabled = true;
    config.resilience.scrub.enabled = true;
    config.resilience.scrub.intervalNs = 50.0e3;
    config.resilience.checkpoint.enabled = true;
    config.resilience.checkpoint.intervalSegments = 8;
    config.resilience.checkpoint.maxRollbacks = 32;
    const RunResult run = AnaheimFramework(config).execute(seq);
    const RunResult again = AnaheimFramework(config).execute(seq);

    // Bitwise-stable across runs...
    EXPECT_DOUBLE_EQ(run.totalNs, again.totalNs);
    EXPECT_EQ(run.resilience.faultyWords, again.resilience.faultyWords);
    // ...internally consistent with the timeline...
    EXPECT_EQ(run.resilience.scrubPasses, countPhase(run, "Scrub"));
    EXPECT_EQ(run.resilience.checkpoints, countPhase(run, "Checkpoint"));
    EXPECT_EQ(run.resilience.rollbacks, countPhase(run, "Rollback"));
    EXPECT_EQ(run.resilience.checksumChecks, countPhase(run, "Verify"));
    // ...and pinned against the recorded baseline.
    const ResilienceStats &s = run.resilience;
    EXPECT_EQ(s.faultyWords, 2668600u);
    EXPECT_EQ(s.eccCorrected, 2668115u);
    EXPECT_EQ(s.eccUncorrectable, 485u);
    EXPECT_EQ(s.laneFaults, 1u);
    EXPECT_EQ(s.retentionFaultyWords, 427609u);
    EXPECT_EQ(s.scrubPasses, 168u);
    EXPECT_EQ(s.scrubCorrected, 426864u);
    EXPECT_EQ(s.scrubUncorrectable, 1u);
    EXPECT_EQ(s.checksumChecks, 34u);
    EXPECT_EQ(s.checksumMismatches, 1u);
    EXPECT_EQ(s.checkpoints, 14u);
    EXPECT_EQ(s.rollbacks, 32u); // budget exhausted at this rate...
    EXPECT_EQ(s.replayedSegments, 111u);
    EXPECT_EQ(s.pimRetries, 95u);
    EXPECT_EQ(s.gpuFallbacks, 6u); // ...then the fallback policy
    EXPECT_EQ(s.unrecovered, 0u);  // but nothing ever leaked
}

} // namespace
} // namespace anaheim
