#include <gtest/gtest.h>

#include <algorithm>

#include "anaheim/framework.h"
#include "support/error_matchers.h"
#include "trace/builders.h"
#include "trace/counting.h"

namespace anaheim {
namespace {

TEST(TraceParams, PaperDefaultsMatchTableIV)
{
    const TraceParams params;
    EXPECT_EQ(params.n, size_t{1} << 16);
    EXPECT_EQ(params.level, 54u);
    EXPECT_EQ(params.alpha, 14u);
    EXPECT_EQ(params.digits(), 4u);
    EXPECT_EQ(params.extended(), 68u);
}

TEST(TraceParams, DnumSweepKeepsLimbBudget)
{
    for (size_t d : {2u, 3u, 4u, 6u}) {
        const auto params = TraceParams::forDnum(d);
        EXPECT_EQ(params.digits(), d) << "D=" << d;
        // Total limbs stay near the security budget of 68.
        EXPECT_NEAR(static_cast<double>(params.level + params.alpha), 68.0,
                    1.0)
            << "D=" << d;
    }
}

TEST(TraceSizes, PolynomialAndEvkMatchPaperFigures)
{
    // §III-A: "a polynomial can be as large as 17MB and an evk 136MB".
    const TraceParams params;
    const double polyBytes = params.level * limbBytes(params.n);
    EXPECT_NEAR(polyBytes / 1e6, 14.2, 1.0); // L=54 of the 64-limb max
    EXPECT_NEAR(evkBytes(params) / 1e6, 142.6, 3.0);
}

TEST(TraceBuilders, HAddIsPureElementWise)
{
    const auto seq = buildHAdd(TraceParams{});
    ASSERT_EQ(seq.ops.size(), 1u);
    EXPECT_EQ(kernelClass(seq.ops[0].type), KernelClass::ElementWise);
    EXPECT_TRUE(seq.ops[0].pimEligible);
    // Arithmetic intensity below 2 ops/byte (§IV-D).
    EXPECT_LT(seq.totalIntOps() / seq.totalBytes(), 2.0);
}

TEST(TraceBuilders, KeySwitchContainsAllThreePhases)
{
    const auto seq = buildKeySwitch(TraceParams{}, "KeyMult");
    EXPECT_GT(seq.countType(KernelType::Intt), 0u);
    EXPECT_GT(seq.countType(KernelType::Ntt), 0u);
    EXPECT_GT(seq.countType(KernelType::BConv), 0u);
    EXPECT_EQ(seq.countType(KernelType::EwPAccum), 1u);

    // The KeyMult PAccum must read a full evk (2*D polys over PQ).
    const TraceParams params;
    double evkRead = 0.0;
    for (const auto &op : seq.ops) {
        for (const auto &operand : op.reads) {
            if (operand.kind == OperandKind::Evk)
                evkRead += operand.limbs * limbBytes(op.n);
        }
    }
    EXPECT_NEAR(evkRead, evkBytes(params), 1.0);
}

TEST(TraceBuilders, HMultHasTensorAndRelin)
{
    const auto seq = buildHMult(TraceParams{});
    EXPECT_EQ(seq.countType(KernelType::EwTensor), 1u);
    EXPECT_GE(seq.countType(KernelType::EwAdd), 1u);
}

TEST(TraceBuilders, HRotAutomorphismBetweenKeyMultAndModDown)
{
    const auto seq = buildHRot(TraceParams{});
    int autIdx = -1, keyMultIdx = -1, modDownIdx = -1;
    for (size_t i = 0; i < seq.ops.size(); ++i) {
        if (seq.ops[i].type == KernelType::Automorphism)
            autIdx = static_cast<int>(i);
        if (seq.ops[i].type == KernelType::EwPAccum && keyMultIdx < 0)
            keyMultIdx = static_cast<int>(i);
        if (seq.ops[i].phase == "ModDown" && modDownIdx < 0)
            modDownIdx = static_cast<int>(i);
    }
    ASSERT_GE(autIdx, 0);
    EXPECT_GT(autIdx, keyMultIdx);
    EXPECT_LT(autIdx, modDownIdx);
}

TEST(TraceBuilders, HoistingSharesOneModUp)
{
    const size_t k = 8;
    const auto hoisted = buildLinearTransform(
        TraceParams{}, k, TraceLtAlgorithm::Hoisting);
    const auto base =
        buildLinearTransform(TraceParams{}, k, TraceLtAlgorithm::Base);
    // Hoisting performs ~1/K of Base's ModSwitch work: compare (I)NTT
    // limb counts (the Fig. 1 table's 2.47x reduction driver).
    EXPECT_LT(countNttLimbOps(hoisted), countNttLimbOps(base) / 2.0);
}

TEST(TraceBuilders, HoistingMovesElementWiseToExtendedModulus)
{
    // Hoisting's MAC accumulation runs at L+alpha limbs; Base's at L.
    const auto hoisted = buildLinearTransform(
        TraceParams{}, 8, TraceLtAlgorithm::Hoisting);
    size_t maxMacLimbs = 0;
    for (const auto &op : hoisted.ops) {
        if (op.phase == "MAC")
            maxMacLimbs = std::max(maxMacLimbs, op.limbs);
    }
    EXPECT_EQ(maxMacLimbs, TraceParams{}.extended());
}

TEST(TraceCounting, MinKsUsesOneEvkHoistingUsesK)
{
    // Fig. 1 table: MinKS needs ~4x fewer evks (one per transform),
    // hoisting one per BSGS baby/giant rotation.
    const TraceParams params;
    const auto hoist = analyzeLinearTransforms(
        params, 3, 8, TraceLtAlgorithm::Hoisting);
    const auto minKs =
        analyzeLinearTransforms(params, 3, 8, TraceLtAlgorithm::MinKS);
    EXPECT_NEAR(hoist.evkBytes / minKs.evkBytes, 6.0, 2.5)
        << "paper reports ~4x fewer evks for MinKS";
    // Hoisting needs far fewer NTT ops; MinKS does not reduce them.
    EXPECT_LT(hoist.nttOps, minKs.nttOps / 2.0);
    // Hoisting's plaintexts are larger (extended modulus).
    EXPECT_GT(hoist.plaintextBytes, minKs.plaintextBytes);
    // MinKS requires a cache big enough to actually reuse the evk.
    EXPECT_GT(minKs.cacheBytes, evkBytes(params));
}

TEST(TraceBuilders, BootstrapLevelsEffMatchesPaper)
{
    // Paper: L 2 -> 54 -> 24 with L_eff = 11 at the fftIter mix 3/4.
    EXPECT_NEAR(bootstrapLevelsEff(TraceParams{}, 3.5), 11.0, 1.0);
    // Increasing fftIter costs levels (Fig. 3's trade-off).
    EXPECT_GT(bootstrapLevelsEff(TraceParams{}, 3.0),
              bootstrapLevelsEff(TraceParams{}, 5.0));
}

TEST(TraceBuilders, BootstrapElementWiseShareGrowsWithHoisting)
{
    const auto hoisted =
        buildBootstrap(TraceParams{}, 3.5, TraceLtAlgorithm::Hoisting);
    const auto minKs =
        buildBootstrap(TraceParams{}, 3.5, TraceLtAlgorithm::MinKS);

    auto elementWiseOps = [](const OpSequence &seq) {
        double ew = 0, total = 0;
        for (const auto &op : seq.ops) {
            const double bytes = op.readBytes() + op.writeBytes();
            total += bytes;
            if (kernelClass(op.type) == KernelClass::ElementWise)
                ew += bytes;
        }
        return ew / total;
    };
    // Hoisting raises the element-wise share (§IV-B).
    EXPECT_GT(elementWiseOps(hoisted), elementWiseOps(minKs));
}

TEST(TraceBuilders, AutFuseRemovesAutomorphismRoundTrips)
{
    TraceOptions with;
    TraceOptions without;
    without.autFuse = false;
    const auto fused = buildLinearTransform(
        TraceParams{}, 8, TraceLtAlgorithm::Hoisting, with);
    const auto plain = buildLinearTransform(
        TraceParams{}, 8, TraceLtAlgorithm::Hoisting, without);
    EXPECT_LT(fused.totalBytes(), plain.totalBytes());
    EXPECT_LT(fused.countType(KernelType::Automorphism),
              plain.countType(KernelType::Automorphism));
}

class DnumSweepTest : public ::testing::TestWithParam<size_t>
{
};

TEST_P(DnumSweepTest, EvkSizeGrowsWithDnum)
{
    const auto params = TraceParams::forDnum(GetParam());
    // evk = 2*D*(L+alpha) limbs: more digits, more key material.
    if (GetParam() > 2) {
        const auto smaller = TraceParams::forDnum(GetParam() - 1);
        EXPECT_GT(evkBytes(params), evkBytes(smaller) * 0.99);
    }
    const auto boot =
        buildBootstrap(params, 3.5, TraceLtAlgorithm::Hoisting);
    EXPECT_GT(boot.ops.size(), 100u);
}

INSTANTIATE_TEST_SUITE_P(Dnums, DnumSweepTest,
                         ::testing::Values<size_t>(2, 3, 4, 6));

TEST(TraceOperands, OverCapacityThrowsAndNeverTruncates)
{
    const Operand a{OperandKind::Working, 1};
    KernelOp op;
    op.reads = {a, a, a};
    EXPECT_ANAHEIM_ERROR(op.reads.push_back(a), InvalidArgument,
                         "at most 3");
    EXPECT_EQ(op.reads.size(), 3u);
    EXPECT_ANAHEIM_ERROR((op.reads = {a, a, a, a}), InvalidArgument,
                         "at most 3");
    op.writes = {a};
    EXPECT_ANAHEIM_ERROR(op.writes.push_back(a), InvalidArgument,
                         "at most 1");
    EXPECT_EQ(op.writes.size(), 1u);
}

TEST(TraceOperands, UnfusedHoistingBootReachesTheReadCapacity)
{
    // Without BasicFuse the linear transforms emit one EwPMac per
    // diagonal reading rotated pair, plaintext and accumulator: the
    // widest op any builder makes, which sizes KernelOp::kMaxReads.
    TraceOptions noBasic;
    noBasic.basicFuse = false;
    const OpSequence seq = buildBootstrap(
        TraceParams{}, 3.5, TraceLtAlgorithm::Hoisting, noBasic);
    size_t maxReads = 0, maxWrites = 0;
    for (const KernelOp &op : seq.ops) {
        maxReads = std::max(maxReads, op.reads.size());
        maxWrites = std::max(maxWrites, op.writes.size());
    }
    EXPECT_EQ(maxReads, KernelOp::kMaxReads);
    EXPECT_EQ(maxWrites, KernelOp::kMaxWrites);
    const RunResult result =
        AnaheimFramework(AnaheimConfig::a100NearBank()).execute(seq);
    EXPECT_GT(result.totalNs, 0.0);
}

} // namespace
} // namespace anaheim
