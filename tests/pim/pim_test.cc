#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "anaheim/framework.h"
#include "anaheim/workloads.h"
#include "common/rng.h"
#include "math/modarith.h"
#include "math/primes.h"
#include "obs/metrics.h"
#include "pim/functional.h"
#include "pim/kernelmodel.h"
#include "pim/layout.h"
#include "support/error_matchers.h"

namespace anaheim {
namespace {

TEST(PimIsa, ProfilesMatchAlgorithmOne)
{
    // PAccum<4>: G = floor(B/6) (Alg. 1 line 1).
    const auto profile = pimInstrProfile(PimOpcode::PAccum, 4);
    EXPECT_EQ(profile.bufferRegions, 6u);
    EXPECT_EQ(profile.readsGroup0, 4u);  // p_0..p_3
    EXPECT_EQ(profile.readsGroup1, 8u);  // a_k, b_k
    EXPECT_EQ(profile.writes, 2u);       // x, y
}

TEST(PimIsa, SmallBuffersRejectCompoundInstructions)
{
    // Fig. 9: some compound instructions are unsupported at small B.
    EXPECT_FALSE(pimInstrSupported(PimOpcode::PAccum, 4, 4));
    EXPECT_TRUE(pimInstrSupported(PimOpcode::PAccum, 4, 16));
    EXPECT_FALSE(pimInstrSupported(PimOpcode::Tensor, 1, 4));
    EXPECT_TRUE(pimInstrSupported(PimOpcode::Add, 1, 4));
}

TEST(PimLayout, PaperExampleSixteenChunksPerBank)
{
    // §VI-B example: N = 2^16 limb over a 512-bank die group -> 16
    // chunks (128 elements) per bank per limb.
    ColumnPartitionLayout layout(DramConfig::hbm2A100(), 512, 1 << 16, 8);
    EXPECT_EQ(layout.chunksPerBankPerLimb(), 16u);
    EXPECT_EQ(layout.chunksPerColumnGroup(), 4u); // 32 chunks / 8 CGs
    EXPECT_EQ(layout.rowsPerRowGroup(), 4u);      // 16 chunks / 4 per CG
}

TEST(PimLayout, PolyGroupSharesRowsAcrossPolys)
{
    ColumnPartitionLayout layout(DramConfig::hbm2A100(), 512, 1 << 16, 8);
    const auto group = layout.allocate(2, 4);
    ASSERT_EQ(group.placements.size(), 8u);
    // x[i] and y[i] live in the same row group, different column groups.
    const auto &x0 = group.placements[0];
    const auto &y0 = group.placements[4];
    EXPECT_EQ(x0.rowGroupBase, y0.rowGroupBase);
    EXPECT_NE(x0.columnGroup, y0.columnGroup);
}

TEST(PimLayout, ActsPerIterationContrast)
{
    ColumnPartitionLayout layout(DramConfig::hbm2A100(), 512, 1 << 16, 8);
    EXPECT_EQ(layout.actsPerIteration(4, true), 1u);
    EXPECT_EQ(layout.actsPerIteration(4, false), 4u);
}

TEST(PimLayout, OfflineBanksStripeOverTheHealthySubset)
{
    // Quarantining two of the 512 banks leaves 8192 chunks over 510
    // healthy banks: ceil -> 17 chunks per bank (vs 16), and the
    // allocation remembers the banks it routed around.
    ColumnPartitionLayout layout(DramConfig::hbm2A100(), 512, 1 << 16, 8,
                                 {17, 3, 17}); // unsorted, duplicated
    EXPECT_EQ(layout.healthyBanks(), 510u);
    EXPECT_EQ(layout.offlineBanks(), (std::vector<size_t>{3, 17}));
    EXPECT_EQ(layout.chunksPerBankPerLimb(), 17u);
    const auto group = layout.allocate(2, 4);
    EXPECT_EQ(group.offlineBanks, (std::vector<size_t>{3, 17}));
    // The healthy-path layout is bit-identical to the original.
    ColumnPartitionLayout healthy(DramConfig::hbm2A100(), 512, 1 << 16,
                                  8);
    EXPECT_EQ(healthy.chunksPerBankPerLimb(), 16u);
    EXPECT_TRUE(healthy.allocate(2, 4).offlineBanks.empty());
}

TEST(PimLayout, RejectsImpossibleQuarantineSets)
{
    EXPECT_ANAHEIM_ERROR(
        ColumnPartitionLayout(DramConfig::hbm2A100(), 512, 1 << 16, 8,
                              {512}),
        InvalidArgument, "offline bank");
    std::vector<size_t> all(512);
    for (size_t b = 0; b < all.size(); ++b)
        all[b] = b;
    EXPECT_ANAHEIM_ERROR(
        ColumnPartitionLayout(DramConfig::hbm2A100(), 512, 1 << 16, 8,
                              all),
        ResourceExhausted, "quarantined");
}

class PimFunctionalTest : public ::testing::Test
{
  protected:
    PimFunctionalTest()
        : q_(generateNttPrimes(1024, 28, 1)[0]), unit_(q_), rng_(55)
    {
    }

    PimVector
    randomVec(size_t count = 64)
    {
        PimVector v(count);
        for (auto &x : v)
            x = static_cast<uint32_t>(rng_.uniform(q_));
        return v;
    }

    uint64_t q_;
    PimFunctionalUnit unit_;
    Rng rng_;
};

TEST_F(PimFunctionalTest, AddSubNegMatchReference)
{
    const auto a = randomVec();
    const auto b = randomVec();
    const auto sum = unit_.add(a, b);
    const auto diff = unit_.sub(a, b);
    const auto neg = unit_.neg(a);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(sum[i], addMod(a[i], b[i], q_));
        EXPECT_EQ(diff[i], subMod(a[i], b[i], q_));
        EXPECT_EQ(neg[i], negMod(a[i], q_));
    }
}

TEST_F(PimFunctionalTest, MontgomeryMultMatchesGenericModMul)
{
    const auto a = randomVec();
    const auto b = randomVec();
    const auto prod = unit_.mult(a, b);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(prod[i], mulMod(a[i], b[i], q_));
}

TEST_F(PimFunctionalTest, MacAndCMacMatchReference)
{
    const auto a = randomVec();
    const auto b = randomVec();
    const auto c = randomVec();
    const uint32_t constant = static_cast<uint32_t>(rng_.uniform(q_));
    const auto mac = unit_.mac(a, b, c);
    const auto cmac = unit_.cMac(a, b, constant);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(mac[i], macMod(a[i], b[i], c[i], q_));
        EXPECT_EQ(cmac[i], macMod(a[i], constant, b[i], q_));
    }
}

TEST_F(PimFunctionalTest, TensorMatchesCiphertextTensorAlgebra)
{
    const auto a = randomVec();
    const auto b = randomVec();
    const auto c = randomVec();
    const auto d = randomVec();
    const auto [x, y, z] = unit_.tensor(a, b, c, d);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(x[i], mulMod(a[i], c[i], q_));
        EXPECT_EQ(y[i], addMod(mulMod(a[i], d[i], q_),
                               mulMod(b[i], c[i], q_), q_));
        EXPECT_EQ(z[i], mulMod(b[i], d[i], q_));
    }
}

TEST_F(PimFunctionalTest, ModDownEpMatchesDefinition)
{
    const auto a = randomVec();
    const auto b = randomVec();
    const uint32_t constant = static_cast<uint32_t>(rng_.uniform(q_));
    const auto out = unit_.modDownEp(a, b, constant);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(out[i],
                  mulMod(constant, subMod(a[i], b[i], q_), q_));
}

TEST_F(PimFunctionalTest, PAccumMatchesKeyMultSemantics)
{
    // KeyMult: x = sum a_k * p_k, y = sum b_k * p_k over D = 4 digits.
    std::vector<PimVector> a, b, p;
    for (int k = 0; k < 4; ++k) {
        a.push_back(randomVec());
        b.push_back(randomVec());
        p.push_back(randomVec());
    }
    const auto [x, y] = unit_.pAccum(a, b, p);
    for (size_t i = 0; i < x.size(); ++i) {
        uint64_t ex = 0, ey = 0;
        for (int k = 0; k < 4; ++k) {
            ex = addMod(ex, mulMod(a[k][i], p[k][i], q_), q_);
            ey = addMod(ey, mulMod(b[k][i], p[k][i], q_), q_);
        }
        EXPECT_EQ(x[i], ex);
        EXPECT_EQ(y[i], ey);
    }
}

TEST_F(PimFunctionalTest, ThirtyTwoBitWordsTruncatedToTwentyEight)
{
    // DRAM stores 32-bit words; the unit truncates to 28 bits (§VI-A).
    PimVector a = {0xF0000001u}; // garbage in the top nibble
    PimVector b = {2u};
    const auto prod = unit_.mult(a, b);
    const uint64_t truncated = (0xF0000001u & 0x0fffffffu) % q_;
    EXPECT_EQ(prod[0], mulMod(truncated, 2u, q_));
}

class PimModelTest : public ::testing::Test
{
  protected:
    PimModelTest()
        : model_(DramConfig::hbm2A100(), PimConfig::nearBankA100())
    {
    }
    PimKernelModel model_;
};

TEST_F(PimModelTest, PimBeatsExternalBaseline)
{
    // Fig. 9: 1.65-10.3x speedups at the default configurations.
    for (PimOpcode op : {PimOpcode::Add, PimOpcode::Mult, PimOpcode::Mac,
                         PimOpcode::PMult, PimOpcode::Tensor}) {
        const auto pim = model_.execute(op, 1, 54, 1 << 16);
        const auto base = model_.baseline(op, 1, 54, 1 << 16);
        ASSERT_TRUE(pim.supported);
        EXPECT_GT(base.timeNs / pim.timeNs, 1.3)
            << pimOpcodeName(op) << " speedup too low";
        EXPECT_LT(base.timeNs / pim.timeNs, 40.0)
            << pimOpcodeName(op) << " speedup implausibly high";
        EXPECT_GT(base.energyPj / pim.energyPj, 1.5)
            << pimOpcodeName(op) << " energy gain too low";
    }
}

TEST_F(PimModelTest, CompoundInstructionsGainMost)
{
    // PAccum's fused execution amortizes ACT/PRE best (§VII-C).
    const auto addPim = model_.execute(PimOpcode::Add, 1, 54, 1 << 16);
    const auto addBase = model_.baseline(PimOpcode::Add, 1, 54, 1 << 16);
    const auto pacPim = model_.execute(PimOpcode::PAccum, 4, 68, 1 << 16);
    const auto pacBase =
        model_.baseline(PimOpcode::PAccum, 4, 68, 1 << 16);
    EXPECT_GT(pacBase.timeNs / pacPim.timeNs,
              addBase.timeNs / addPim.timeNs);
}

TEST_F(PimModelTest, LargerBufferAmortizesActPre)
{
    PimConfig small = PimConfig::nearBankA100();
    small.bufferEntries = 8;
    PimConfig large = PimConfig::nearBankA100();
    large.bufferEntries = 64;
    const PimKernelModel smallModel(DramConfig::hbm2A100(), small);
    const PimKernelModel largeModel(DramConfig::hbm2A100(), large);
    const auto slow = smallModel.execute(PimOpcode::PAccum, 4, 68,
                                         1 << 16);
    const auto fast = largeModel.execute(PimOpcode::PAccum, 4, 68,
                                         1 << 16);
    EXPECT_LT(fast.timeNs, slow.timeNs);
    EXPECT_LT(fast.commands.acts, slow.commands.acts);
}

TEST_F(PimModelTest, ColumnPartitioningIsCrucial)
{
    // Fig. 10: dropping the CP layout makes element-wise time ~2.2x
    // slower on A100.
    PimConfig noCp = PimConfig::nearBankA100();
    noCp.columnPartition = false;
    const PimKernelModel noCpModel(DramConfig::hbm2A100(), noCp);
    const auto with = model_.execute(PimOpcode::PAccum, 4, 68, 1 << 16);
    const auto without =
        noCpModel.execute(PimOpcode::PAccum, 4, 68, 1 << 16);
    const double slowdown = without.timeNs / with.timeNs;
    EXPECT_GT(slowdown, 1.5);
    EXPECT_LT(slowdown, 4.0);
}

TEST_F(PimModelTest, DegradedDeviceStretchesLockstepStreams)
{
    // Offline banks: each healthy bank absorbs more chunks per limb,
    // so the lockstep stream takes longer; energy only charges the
    // banks that still switch, so it must not grow with the slowdown.
    PimConfig degraded = PimConfig::nearBankA100();
    for (size_t b = 0; b < 32; ++b)
        degraded.offlineBanks.push_back(b);
    const PimKernelModel degradedModel(DramConfig::hbm2A100(), degraded);
    const auto healthy = model_.execute(PimOpcode::PAccum, 4, 68, 1 << 16);
    const auto slower =
        degradedModel.execute(PimOpcode::PAccum, 4, 68, 1 << 16);
    EXPECT_GT(slower.timeNs, healthy.timeNs);

    // Dead lanes: survivors serialize their multiplies.
    PimConfig laneDegraded = PimConfig::nearBankA100();
    laneDegraded.quarantinedLanes = 4; // 8 -> 4 lanes
    const PimKernelModel laneModel(DramConfig::hbm2A100(), laneDegraded);
    const auto laneSlower =
        laneModel.execute(PimOpcode::Mult, 1, 54, 1 << 16);
    const auto laneHealthy =
        model_.execute(PimOpcode::Mult, 1, 54, 1 << 16);
    EXPECT_GT(laneSlower.timeNs, laneHealthy.timeNs);
    // Total multiplies are unchanged, so MMAC energy is too: the lane
    // quarantine costs time, not energy.
    EXPECT_NEAR(laneSlower.energyPj, laneHealthy.energyPj,
                0.05 * laneHealthy.energyPj);
}

TEST_F(PimModelTest, DegradedConfigTracksTheWorstDieGroup)
{
    // Lockstep ties the device to its worst group: degraded() must
    // adopt that group's offline banks and the worst lane count.
    ResourceMap map;
    map.dieGroups = 5;
    map.banksPerDieGroup = 512;
    map.lanesPerUnit = 8;
    map.quarantined = {
        {FaultSiteId::Kind::Bank, 1, 40},
        {FaultSiteId::Kind::Bank, 3, 7},
        {FaultSiteId::Kind::Bank, 3, 200},
        {FaultSiteId::Kind::MmacLane, 0, 2},
    };
    const PimConfig degraded = PimConfig::nearBankA100().degraded(map);
    EXPECT_EQ(degraded.offlineBanks, (std::vector<size_t>{7, 200}));
    EXPECT_EQ(degraded.quarantinedLanes, 1u);
    EXPECT_EQ(degraded.healthyBanksPerDieGroup(), 510u);
    EXPECT_EQ(degraded.healthyLanes(), 7u);
    // Nothing quarantined: identity.
    const PimConfig same =
        PimConfig::nearBankA100().degraded(ResourceMap{});
    EXPECT_TRUE(same.offlineBanks.empty());
    EXPECT_EQ(same.quarantinedLanes, 0u);
}

TEST_F(PimModelTest, CustomHbmHidesActPreButStreamsSlower)
{
    const PimKernelModel custom(DramConfig::hbm2A100(),
                                PimConfig::customHbmA100());
    // For a simple streaming op custom-HBM is slower (4x vs 16x BW).
    const auto nearAdd = model_.execute(PimOpcode::Add, 1, 54, 1 << 16);
    const auto customAdd = custom.execute(PimOpcode::Add, 1, 54, 1 << 16);
    EXPECT_GT(customAdd.timeNs, nearAdd.timeNs);
    // Saturation with B is faster for custom-HBM (Fig. 9): shrinking the
    // buffer hurts it less than near-bank.
    PimConfig smallNear = PimConfig::nearBankA100();
    smallNear.bufferEntries = 8;
    PimConfig smallCustom = PimConfig::customHbmA100();
    smallCustom.bufferEntries = 8;
    const PimKernelModel nearSmall(DramConfig::hbm2A100(), smallNear);
    const PimKernelModel customSmall(DramConfig::hbm2A100(), smallCustom);
    const double nearPenalty =
        nearSmall.execute(PimOpcode::PAccum, 4, 68, 1 << 16).timeNs /
        model_.execute(PimOpcode::PAccum, 4, 68, 1 << 16).timeNs;
    const double customPenalty =
        customSmall.execute(PimOpcode::PAccum, 4, 68, 1 << 16).timeNs /
        custom.execute(PimOpcode::PAccum, 4, 68, 1 << 16).timeNs;
    EXPECT_GT(nearPenalty, customPenalty);
}


TEST_F(PimModelTest, ChainedAccumulationGaugeCountsEveryPiece)
{
    // fanIn + 2 > B = 16: the instruction is priced as a chain of
    // PAccum<4> pieces, and the gauge must see the whole chain (the
    // chunks RunContext charges), on a memo hit as on the miss.
    obs::Gauge &chunks =
        obs::MetricsRegistry::global().gauge("pim.model.chunks_moved");
    for (int call = 0; call < 2; ++call) {
        chunks.reset();
        const auto stats =
            model_.execute(PimOpcode::PAccum, 20, 68, 1 << 16);
        EXPECT_GT(stats.chunksMoved, 0.0);
        EXPECT_EQ(chunks.value(), stats.chunksMoved) << "call " << call;
    }
}

void
expectIdentical(const PimExecStats &got, const PimExecStats &want)
{
    EXPECT_EQ(got.timeNs, want.timeNs);
    EXPECT_EQ(got.energyPj, want.energyPj);
    EXPECT_EQ(got.commands.acts, want.commands.acts);
    EXPECT_EQ(got.commands.reads, want.commands.reads);
    EXPECT_EQ(got.commands.writes, want.commands.writes);
    EXPECT_EQ(got.commands.pres, want.commands.pres);
    EXPECT_EQ(got.chunksMoved, want.chunksMoved);
    EXPECT_EQ(got.chunkGranularity, want.chunkGranularity);
    EXPECT_EQ(got.supported, want.supported);
}

using Shape = std::tuple<PimOpcode, size_t, size_t, size_t>;

/** The execute() calls a fault-free run of every paper trace makes on a
 *  device with this PIM config, in trace order. */
std::vector<Shape>
paperCalls(const PimConfig &pim)
{
    static const auto workloads = makeAllWorkloads();
    std::vector<Shape> calls;
    for (const auto &[info, seq] : workloads) {
        for (const KernelOp &op : seq.ops) {
            if (!op.pimEligible)
                continue;
            const PimOpcode opcode = AnaheimFramework::opcodeFor(op.type);
            if (!pimInstrSupported(opcode, op.fanIn, pim.bufferEntries))
                continue;
            calls.emplace_back(opcode, op.fanIn, op.limbs, op.n);
        }
    }
    return calls;
}

std::string
shapeName(const Shape &shape)
{
    const auto &[opcode, fanIn, limbs, n] = shape;
    return std::string(pimOpcodeName(opcode)) + " fanIn " +
           std::to_string(fanIn) + " limbs " + std::to_string(limbs) +
           " n " + std::to_string(n);
}

/** Prices `calls` in order on `model`, one result per call. */
std::vector<PimExecStats>
priceAll(const PimKernelModel &model, const std::vector<Shape> &calls)
{
    std::vector<PimExecStats> out;
    for (const auto &[opcode, fanIn, limbs, n] : calls)
        out.push_back(model.execute(opcode, fanIn, limbs, n));
    return out;
}

/** Counts what a block of execute() calls added to the model counters. */
struct MemoCounts {
    obs::Counter &instructions =
        obs::MetricsRegistry::global().counter("pim.model.instructions");
    obs::Counter &hits =
        obs::MetricsRegistry::global().counter("pim.model.cache_hits");
    obs::Counter &misses =
        obs::MetricsRegistry::global().counter("pim.model.cache_misses");
    uint64_t instructions0 = instructions.value();
    uint64_t hits0 = hits.value();
    uint64_t misses0 = misses.value();

    uint64_t newInstructions() const
    {
        return instructions.value() - instructions0;
    }
    uint64_t newHits() const { return hits.value() - hits0; }
    uint64_t newMisses() const { return misses.value() - misses0; }
};

TEST(PimModelMemo, WarmInstanceMatchesAFreshOneOnEveryPaperShape)
{
    // The process-wide store makes the first pricing of a shape under a
    // config the reference: a second instance of an equal config must
    // re-simulate nothing and return exactly what the first returned.
    PimConfig noCp = PimConfig::nearBankA100();
    noCp.columnPartition = false;
    PimConfig degraded = PimConfig::nearBankA100();
    for (size_t b = 0; b < 32; ++b)
        degraded.offlineBanks.push_back(b);
    degraded.quarantinedLanes = 4;
    const std::vector<std::pair<DramConfig, PimConfig>> devices = {
        {DramConfig::hbm2A100(), PimConfig::nearBankA100()},
        {DramConfig::hbm2A100(), PimConfig::customHbmA100()},
        {DramConfig::gddr6xRtx4090(), PimConfig::nearBankRtx4090()},
        {DramConfig::hbm2A100(), noCp},
        {DramConfig::hbm2A100(), degraded},
    };

    for (size_t d = 0; d < devices.size(); ++d) {
        const auto &[dram, pim] = devices[d];
        SCOPED_TRACE("device " + std::to_string(d));
        const std::vector<Shape> calls = paperCalls(pim);
        const std::set<Shape> shapes(calls.begin(), calls.end());
        ASSERT_GT(calls.size(), shapes.size());

        const MemoCounts first;
        const std::vector<PimExecStats> reference =
            priceAll(PimKernelModel(dram, pim), calls);
        // Earlier models of this config may have stored some shapes.
        EXPECT_LE(first.newMisses(), shapes.size());
        EXPECT_EQ(first.newHits() + first.newMisses(), calls.size());
        EXPECT_EQ(first.newInstructions(), calls.size());

        const DramConfig dramCopy = dram;
        const PimConfig pimCopy = pim;
        const MemoCounts second;
        const std::vector<PimExecStats> warm =
            priceAll(PimKernelModel(dramCopy, pimCopy), calls);
        EXPECT_EQ(second.newMisses(), 0u);
        EXPECT_EQ(second.newHits(), calls.size());
        for (size_t c = 0; c < calls.size(); ++c) {
            SCOPED_TRACE(shapeName(calls[c]));
            expectIdentical(warm[c], reference[c]);
        }
    }
}

TEST(PimModelMemo, StoreNeverSharesAcrossConfigs)
{
    // Each variant differs from the base in one priced field, and must
    // price its own entry rather than reuse the base's.
    const DramConfig dram = DramConfig::hbm2A100();
    PimConfig base = PimConfig::nearBankA100();
    base.offlineBanks = {0, 1, 2, 3};
    base.quarantinedLanes = 1;

    PimConfig otherBanks = base;
    otherBanks.offlineBanks = {4, 5, 6, 7};
    PimConfig moreLanes = base;
    moreLanes.quarantinedLanes = 2;
    PimConfig noCp = base;
    noCp.columnPartition = false;
    DramConfig shortRefresh = dram;
    shortRefresh.timing.tREFI = 3900;
    struct Variant {
        const char *field;
        DramConfig dram;
        PimConfig pim;
    };
    const std::vector<Variant> variants = {
        {"offlineBanks", dram, otherBanks},
        {"quarantinedLanes", dram, moreLanes},
        {"columnPartition", dram, noCp},
        {"tREFI", shortRefresh, base},
    };

    PimPriceStore store;
    const auto price = [&](const DramConfig &d, const PimConfig &p) {
        return PimKernelModel(d, p, store).execute(PimOpcode::PAccum, 4,
                                                   40, 1 << 16);
    };
    const MemoCounts baseCounts;
    price(dram, base);
    EXPECT_EQ(baseCounts.newMisses(), 1u);
    EXPECT_EQ(store.size(), 1u);
    // An equal config does share the entry.
    const MemoCounts equalCounts;
    price(DramConfig::hbm2A100(), base);
    EXPECT_EQ(equalCounts.newMisses(), 0u);

    for (size_t v = 0; v < variants.size(); ++v) {
        const Variant &variant = variants[v];
        SCOPED_TRACE(variant.field);
        const MemoCounts counts;
        const PimExecStats stats = price(variant.dram, variant.pim);
        EXPECT_EQ(counts.newMisses(), 1u);
        EXPECT_EQ(store.size(), v + 2);
        PimPriceStore fresh;
        expectIdentical(stats,
                        PimKernelModel(variant.dram, variant.pim, fresh)
                            .execute(PimOpcode::PAccum, 4, 40, 1 << 16));
    }
}

TEST(PimModelMemo, StoreStopsInsertingAtItsCapacity)
{
    // A store of capacity 2 holds two prices and two configs. Past
    // that, models price on their own, and every price still matches
    // one from an unbounded store.
    const DramConfig dram = DramConfig::hbm2A100();
    const PimConfig pim = PimConfig::nearBankA100();
    std::vector<Shape> calls;
    for (size_t limbs = 10; limbs < 14; ++limbs)
        calls.emplace_back(PimOpcode::Mult, 1, limbs, 1 << 16);

    PimPriceStore full(2);
    PimPriceStore unbounded;
    const std::vector<PimExecStats> reference =
        priceAll(PimKernelModel(dram, pim, unbounded), calls);
    const auto expectReference = [&](const std::vector<PimExecStats> &got) {
        ASSERT_EQ(got.size(), reference.size());
        for (size_t c = 0; c < calls.size(); ++c) {
            SCOPED_TRACE(shapeName(calls[c]));
            expectIdentical(got[c], reference[c]);
        }
    };

    const MemoCounts filling;
    expectReference(priceAll(PimKernelModel(dram, pim, full), calls));
    EXPECT_EQ(filling.newMisses(), calls.size());
    EXPECT_EQ(full.size(), 2u);
    // A new instance finds the two stored shapes and prices the rest.
    const MemoCounts past;
    expectReference(priceAll(PimKernelModel(dram, pim, full), calls));
    EXPECT_EQ(past.newMisses(), calls.size() - 2);
    EXPECT_EQ(full.size(), 2u);

    // The second config gets a table but no room in it; the third
    // gets no table at all. Both still price correctly.
    for (const int tREFI : {3900, 1950}) {
        SCOPED_TRACE("tREFI " + std::to_string(tREFI));
        DramConfig other = dram;
        other.timing.tREFI = tREFI;
        const std::vector<PimExecStats> want =
            priceAll(PimKernelModel(other, pim, unbounded), calls);
        for (int instance = 0; instance < 2; ++instance) {
            const MemoCounts counts;
            const std::vector<PimExecStats> got =
                priceAll(PimKernelModel(other, pim, full), calls);
            EXPECT_EQ(counts.newMisses(), calls.size());
            for (size_t c = 0; c < calls.size(); ++c)
                expectIdentical(got[c], want[c]);
        }
        EXPECT_EQ(full.size(), 2u);
    }
}

TEST(PimModelMemo, ConcurrentInstancesPriceIdentically)
{
    // Two threads, each with its own model on one shared store, race
    // to price and store every paper shape; both must see exactly the
    // serial prices.
    const DramConfig dram = DramConfig::hbm2A100();
    const PimConfig pim = PimConfig::nearBankA100();
    const std::vector<Shape> calls = paperCalls(pim);
    PimPriceStore serialStore;
    const std::vector<PimExecStats> serial =
        priceAll(PimKernelModel(dram, pim, serialStore), calls);

    PimPriceStore shared;
    std::vector<PimExecStats> results[2];
    std::vector<std::thread> threads;
    for (auto &out : results)
        threads.emplace_back([&dram, &pim, &calls, &shared, &out] {
            out = priceAll(PimKernelModel(dram, pim, shared), calls);
        });
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(shared.size(), serialStore.size());
    for (size_t t = 0; t < 2; ++t) {
        SCOPED_TRACE("thread " + std::to_string(t));
        ASSERT_EQ(results[t].size(), calls.size());
        for (size_t c = 0; c < calls.size(); ++c) {
            SCOPED_TRACE(shapeName(calls[c]));
            expectIdentical(results[t][c], serial[c]);
        }
    }
}

TEST_F(PimFunctionalTest, UnaryOpsRejectEmptyOperands)
{
    const PimVector empty;
    EXPECT_ANAHEIM_ERROR(unit_.move(empty), InvalidArgument,
                         "empty operand");
    EXPECT_ANAHEIM_ERROR(unit_.neg(empty), InvalidArgument,
                         "empty operand");
    EXPECT_ANAHEIM_ERROR(unit_.cAdd(empty, 3), InvalidArgument,
                         "empty operand");
    EXPECT_ANAHEIM_ERROR(unit_.cMult(empty, 3), InvalidArgument,
                         "empty operand");
}

TEST_F(PimFunctionalTest, BinaryOpsRejectSizeMismatches)
{
    const auto a = randomVec(64);
    const auto shorter = randomVec(32);
    EXPECT_ANAHEIM_ERROR(unit_.add(a, shorter), InvalidArgument,
                         "size mismatch");
    EXPECT_ANAHEIM_ERROR(unit_.sub(a, shorter), InvalidArgument,
                         "size mismatch");
    EXPECT_ANAHEIM_ERROR(unit_.mult(a, shorter), InvalidArgument,
                         "size mismatch");
    EXPECT_ANAHEIM_ERROR(unit_.cMac(a, shorter, 5), InvalidArgument,
                         "size mismatch");
    EXPECT_ANAHEIM_ERROR(unit_.mac(a, a, shorter), InvalidArgument,
                         "size mismatch");
}

TEST_F(PimFunctionalTest, TensorAndModDownRejectSizeMismatches)
{
    const auto a = randomVec(64);
    const auto b = randomVec(64);
    const auto shorter = randomVec(32);
    EXPECT_ANAHEIM_ERROR(unit_.tensor(a, b, a, shorter), InvalidArgument,
                         "Tensor operand size mismatch");
    EXPECT_ANAHEIM_ERROR(unit_.tensor(a, shorter, a, b), InvalidArgument,
                         "Tensor operand size mismatch");
    EXPECT_ANAHEIM_ERROR(unit_.modDownEp(a, shorter, 7), InvalidArgument,
                         "ModDownEp operand size mismatch");
    EXPECT_ANAHEIM_ERROR(unit_.pAccum({a}, {a, b}, {a}), InvalidArgument,
                         "fan-in mismatch");
    // Well-formed calls still succeed after a rejection.
    EXPECT_EQ(unit_.tensor(a, b, a, b)[0].size(), 64u);
    EXPECT_EQ(unit_.modDownEp(a, b, 7).size(), 64u);
}

} // namespace
} // namespace anaheim
