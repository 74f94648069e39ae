#include <gtest/gtest.h>

#include <set>
#include <string>

#include "anaheim/framework.h"
#include "anaheim/workloads.h"
#include "gpu/gpumodel.h"
#include "trace/builders.h"

namespace anaheim {
namespace {

double
categoryShare(const RunResult &result, const char *category)
{
    const auto it = result.timeNsByCategory.find(category);
    if (it == result.timeNsByCategory.end())
        return 0.0;
    return it->second / result.totalNs;
}

TEST(GpuModel, ElementWiseOpsAreMemoryBound)
{
    // §IV-D: element-wise ops have < 2 ops/byte; NTT is compute-bound.
    const GpuModel gpu(GpuConfig::a100_80gb(), LibraryProfile::cheddar());
    const auto hadd = buildHAdd(TraceParams{});
    const auto stats = gpu.run(hadd.ops[0]);
    EXPECT_TRUE(stats.memoryBound());

    KernelOp ntt;
    ntt.type = KernelType::Ntt;
    ntt.n = 1 << 16;
    ntt.limbs = 54;
    ntt.reads = {{OperandKind::Working, 54}};
    ntt.writes = {{OperandKind::Working, 54}};
    const auto nttStats = gpu.run(ntt);
    EXPECT_FALSE(nttStats.memoryBound());
}

TEST(GpuModel, CheddarBeatsPhantomOnNtt)
{
    // Fig. 2a: ~1.8x NTT advantage for Cheddar over Phantom.
    KernelOp ntt;
    ntt.type = KernelType::Ntt;
    ntt.n = 1 << 16;
    ntt.limbs = 54;
    ntt.reads = {{OperandKind::Working, 54}};
    ntt.writes = {{OperandKind::Working, 54}};
    const GpuModel cheddar(GpuConfig::a100_80gb(),
                           LibraryProfile::cheddar());
    const GpuModel phantom(GpuConfig::a100_80gb(),
                           LibraryProfile::phantom());
    const double ratio =
        phantom.run(ntt).timeNs / cheddar.run(ntt).timeNs;
    EXPECT_NEAR(ratio, 1.8, 0.2);
}

TEST(GpuModel, EvkOperandsAlwaysStream)
{
    const GpuModel gpu(GpuConfig::a100_80gb(), LibraryProfile::cheddar());
    KernelOp keyMult;
    keyMult.type = KernelType::EwPAccum;
    keyMult.n = 1 << 16;
    keyMult.limbs = 68;
    keyMult.fanIn = 4;
    keyMult.reads = {{OperandKind::Working, 4 * 68},
                     {OperandKind::Evk, 2 * 4 * 68}};
    keyMult.writes = {{OperandKind::Intermediate, 2 * 68}};
    const auto traffic = gpu.traffic(keyMult, true);
    // The evk (136MB+) must be in the DRAM reads even when fused.
    EXPECT_GE(traffic.dramReadBytes, 2 * 4 * 68 * limbBytes(1 << 16));
}

class FrameworkTest : public ::testing::Test
{
  protected:
    RunResult
    run(const OpSequence &seq, AnaheimConfig config)
    {
        const AnaheimFramework framework(config);
        return framework.execute(seq);
    }
};

TEST_F(FrameworkTest, ElementWiseDominatesBootWithoutPim)
{
    // Fig. 2b: element-wise ops are 45-48% of bootstrapping on A100
    // and 68-69% on RTX 4090 with hoisting.
    const auto boot = makeBootWorkload();
    AnaheimConfig a100 = AnaheimConfig::a100NearBank();
    a100.pimEnabled = false;
    const auto resultA100 = run(boot, a100);
    const double shareA100 = categoryShare(resultA100, "ElementWise");
    EXPECT_GT(shareA100, 0.35);
    EXPECT_LT(shareA100, 0.60);

    AnaheimConfig rtx = AnaheimConfig::rtx4090NearBank();
    rtx.pimEnabled = false;
    const auto resultRtx = run(boot, rtx);
    const double shareRtx = categoryShare(resultRtx, "ElementWise");
    EXPECT_GT(shareRtx, shareA100)
        << "RTX 4090's higher compute/BW ratio must raise the share";
}

TEST_F(FrameworkTest, PimSpeedsUpBootstrapping)
{
    const auto boot = makeBootWorkload();
    AnaheimConfig config = AnaheimConfig::a100NearBank();
    config.pimEnabled = false;
    const auto baseline = run(boot, config);
    config.pimEnabled = true;
    const auto withPim = run(boot, config);

    const double speedup = baseline.totalNs / withPim.totalNs;
    // Fig. 8: 1.24-1.74x on A100 near-bank.
    EXPECT_GT(speedup, 1.1);
    EXPECT_LT(speedup, 2.5);
    // Energy must improve too (1.38-2.05x in the paper).
    EXPECT_GT(baseline.energyPj / withPim.energyPj, 1.1);
}

TEST_F(FrameworkTest, PimReducesGpuSideDramTraffic)
{
    // Fig. 4b: 6.15x lower GPU-side DRAM access with PIM.
    const auto boot = makeBootWorkload();
    AnaheimConfig config = AnaheimConfig::a100NearBank();
    config.pimEnabled = false;
    const auto baseline = run(boot, config);
    config.pimEnabled = true;
    const auto withPim = run(boot, config);
    const double reduction = baseline.gpuDramBytes / withPim.gpuDramBytes;
    EXPECT_GT(reduction, 2.0);
    EXPECT_LT(reduction, 20.0);
    EXPECT_GT(withPim.pimInternalBytes, 0.0);
}

TEST_F(FrameworkTest, TimelineIsContiguousAndOrdered)
{
    // GPU and PIM kernels never overlap (§V-C): every entry starts
    // exactly where the previous one ended. The same tiling with scrub,
    // checkpoints and rollbacks on is checked by
    // ExportTest.TimelineLeavesExecuteInCanonicalOrder.
    const auto seq = buildHMult(TraceParams{});
    const auto result = run(seq, AnaheimConfig::a100NearBank());
    ASSERT_FALSE(result.timeline.empty());
    EXPECT_EQ(result.timeline.front().startNs, 0.0);
    for (size_t i = 0; i < result.timeline.size(); ++i) {
        const GanttEntry &entry = result.timeline[i];
        ASSERT_GE(entry.endNs, entry.startNs)
            << "entry " << i << " (" << entry.phase << ")";
        if (i > 0) {
            ASSERT_EQ(entry.startNs, result.timeline[i - 1].endNs)
                << "entry " << i << " (" << entry.phase << ")";
        }
    }
    EXPECT_EQ(result.timeline.back().endNs, result.totalNs);
}

TEST_F(FrameworkTest, TimelineNamesOutliveTheTrace)
{
    // Timeline names are views of static storage, never of the trace:
    // the trace here dies at the end of the full expression, before
    // any entry is read. A name that pointed into it would dangle
    // (and fail under ASan).
    AnaheimConfig config = AnaheimConfig::a100NearBank();
    config.resilience.checksumEnabled = true;
    config.resilience.scrub.enabled = true;
    config.resilience.scrub.intervalNs = 50.0e3;
    config.resilience.checkpoint.enabled = true;
    config.resilience.checkpoint.intervalSegments = 8;
    const RunResult result =
        AnaheimFramework(config).execute(buildHMult(TraceParams{}));

    std::set<std::string> phases = {"Verify", "Scrub", "Checkpoint"};
    for (const KernelOp &op : buildHMult(TraceParams{}).ops)
        phases.emplace(op.phase);
    const std::set<Lane> devices = {Lane::GPU, Lane::PIM, Lane::DRAM};
    std::set<std::string> seen;
    ASSERT_FALSE(result.timeline.empty());
    for (const GanttEntry &entry : result.timeline) {
        const std::string phase(entry.phase);
        EXPECT_TRUE(phases.count(phase)) << phase;
        EXPECT_TRUE(devices.count(entry.device))
            << laneName(entry.device);
        seen.insert(phase);
    }
    EXPECT_TRUE(seen.count("Verify"));
    EXPECT_TRUE(seen.count("Checkpoint"));
}

TEST_F(FrameworkTest, VariantSpeedupOrdering)
{
    // Fig. 8: near-bank A100 >= custom-HBM A100 speedups; RTX 4090
    // sees the smallest gains (8x vs 16x internal bandwidth).
    const auto boot = makeBootWorkload();
    auto speedupOf = [&](AnaheimConfig config) {
        config.pimEnabled = false;
        const double base = run(boot, config).totalNs;
        config.pimEnabled = true;
        return base / run(boot, config).totalNs;
    };
    const double nearBank = speedupOf(AnaheimConfig::a100NearBank());
    const double customHbm = speedupOf(AnaheimConfig::a100CustomHbm());
    EXPECT_GT(nearBank, 1.0);
    EXPECT_GT(customHbm, 1.0);
    EXPECT_GE(nearBank, customHbm * 0.95)
        << "custom-HBM should trail (or match) near-bank slightly";
}

TEST_F(FrameworkTest, AllWorkloadsExecuteOnAllConfigs)
{
    const auto workloads = makeAllWorkloads();
    ASSERT_EQ(workloads.size(), 6u);
    for (const auto &config :
         {AnaheimConfig::a100NearBank(), AnaheimConfig::a100CustomHbm(),
          AnaheimConfig::rtx4090NearBank()}) {
        for (const auto &[info, seq] : workloads) {
            const auto result = run(seq, config);
            EXPECT_GT(result.totalNs, 0.0) << info.name;
            EXPECT_GT(result.energyPj, 0.0) << info.name;
        }
    }
}

TEST_F(FrameworkTest, EdpImprovesWithPim)
{
    // Headline: 1.62-3.14x EDP improvement.
    for (const auto &[info, seq] : makeAllWorkloads()) {
        AnaheimConfig config = AnaheimConfig::a100NearBank();
        config.pimEnabled = false;
        const auto base = run(seq, config);
        config.pimEnabled = true;
        const auto pim = run(seq, config);
        EXPECT_GT(base.edp() / pim.edp(), 1.2) << info.name;
    }
}

TEST_F(FrameworkTest, ExtraFuseHelpsGpuOnlyRuns)
{
    TraceOptions noBasic;
    noBasic.basicFuse = false;
    const auto unfused = buildBootstrap(TraceParams{}, 3.5,
                                        TraceLtAlgorithm::Hoisting,
                                        noBasic);
    AnaheimConfig config = AnaheimConfig::a100NearBank();
    config.pimEnabled = false;
    config.fusion.extraFuse = false;
    const auto without = run(unfused, config);
    config.fusion.extraFuse = true;
    const auto with = run(unfused, config);
    EXPECT_LT(with.totalNs, without.totalNs);
}

} // namespace
} // namespace anaheim
