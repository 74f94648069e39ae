/**
 * @file
 * Tests for the shared limb-parallel execution engine: pool mechanics
 * (reuse, exception propagation, grain edge cases, the ANAHEIM_THREADS=1
 * serial fallback) and the determinism property — parallel and serial
 * executions of the limb-partitioned hot paths (NTT, BConv, keyswitch)
 * and of the column-partitioned bootstrap DFT-factor build must produce
 * bitwise-identical results.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <vector>

#include "boot/dft.h"
#include "ckks/keys.h"
#include "ckks/keyswitch.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "math/primes.h"
#include "poly/polynomial.h"
#include "rns/bconv.h"
#include "support/error_matchers.h"

namespace anaheim {
namespace {

/** Restores the global pool width when a test returns. */
class ThreadGuard
{
  public:
    ThreadGuard() : saved_(parallelThreadCount()) {}
    ~ThreadGuard() { setParallelThreads(saved_); }

  private:
    size_t saved_;
};

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce)
{
    ThreadGuard guard;
    setParallelThreads(4);
    std::vector<std::atomic<int>> visits(1000);
    parallelFor(0, visits.size(), 7, [&](size_t i) { ++visits[i]; });
    for (size_t i = 0; i < visits.size(); ++i)
        EXPECT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(ParallelForTest, PoolIsReusedAcrossCalls)
{
    ThreadGuard guard;
    setParallelThreads(4);
    const size_t widthBefore = parallelThreadCount();
    std::atomic<uint64_t> sum{0};
    for (int round = 0; round < 50; ++round)
        parallelFor(0, 64, 1, [&](size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 50u * (64u * 63u / 2));
    // Repeated loops run on the same pool; no teardown/respawn between.
    EXPECT_EQ(parallelThreadCount(), widthBefore);
}

TEST(ParallelForTest, GrainEdgeCases)
{
    ThreadGuard guard;
    setParallelThreads(4);

    // Empty and inverted ranges are no-ops.
    bool touched = false;
    parallelFor(5, 5, 1, [&](size_t) { touched = true; });
    parallelFor(7, 3, 1, [&](size_t) { touched = true; });
    EXPECT_FALSE(touched);

    // grain == 0 is treated as 1.
    std::vector<std::atomic<int>> a(17);
    parallelFor(0, a.size(), 0, [&](size_t i) { ++a[i]; });
    for (auto &v : a)
        EXPECT_EQ(v.load(), 1);

    // grain larger than the range runs the whole range (inline).
    std::vector<std::atomic<int>> b(9);
    parallelFor(0, b.size(), 100, [&](size_t i) { ++b[i]; });
    for (auto &v : b)
        EXPECT_EQ(v.load(), 1);

    // Nonzero begin with a grain that does not divide the count.
    std::vector<std::atomic<int>> c(23);
    parallelFor(3, 23, 4, [&](size_t i) { ++c[i]; });
    for (size_t i = 0; i < c.size(); ++i)
        EXPECT_EQ(c[i].load(), i >= 3 ? 1 : 0) << "index " << i;
}

TEST(ParallelForTest, DegenerateRangesNeitherDeadlockNorSkip)
{
    ThreadGuard guard;
    setParallelThreads(4);

    // Range smaller than the thread count: every index exactly once,
    // idle workers must not spin or claim phantom chunks.
    std::vector<std::atomic<int>> tiny(2);
    parallelFor(0, tiny.size(), 1, [&](size_t i) { ++tiny[i]; });
    for (auto &v : tiny)
        EXPECT_EQ(v.load(), 1);

    // A single-index range with a grain much larger than it.
    std::atomic<int> one{0};
    parallelFor(41, 42, 64, [&](size_t i) {
        EXPECT_EQ(i, 41u);
        ++one;
    });
    EXPECT_EQ(one.load(), 1);

    // Chunk-count rounding: grains that leave a short tail (the shape
    // vectorized kernels hand over when N is not a multiple of the
    // vector width) must neither skip the tail nor run it twice.
    for (size_t grain : {3, 5, 8, 13}) {
        std::vector<std::atomic<int>> v(67); // prime: never divides
        parallelFor(0, v.size(), grain, [&](size_t i) { ++v[i]; });
        for (size_t i = 0; i < v.size(); ++i)
            EXPECT_EQ(v[i].load(), 1) << "grain " << grain << " i " << i;
    }
}

TEST(ParallelForTest, RangesNearSizeMaxDoNotWrapTheCursor)
{
    // Regression: the old implementation advanced a raw offset cursor
    // with fetch_add(grain); for ranges ending near SIZE_MAX the adds
    // wrapped past `end` and re-admitted bogus indices. The chunk-index
    // cursor cannot wrap. (Found while auditing the vectorized tails.)
    ThreadGuard guard;
    setParallelThreads(4);
    const size_t end = std::numeric_limits<size_t>::max();
    const size_t begin = end - 70;
    std::atomic<uint64_t> count{0};
    std::atomic<bool> outOfRange{false};
    parallelFor(begin, end, 16, [&](size_t i) {
        if (i < begin || i >= end)
            outOfRange = true;
        ++count;
    });
    EXPECT_EQ(count.load(), 70u);
    EXPECT_FALSE(outOfRange.load());
}

TEST(ParallelForTest, ExceptionPropagatesToCaller)
{
    ThreadGuard guard;
    setParallelThreads(4);
    EXPECT_THROW(
        parallelFor(0, 256, 1,
                    [](size_t i) {
                        if (i == 97)
                            throw std::runtime_error("boom at 97");
                    }),
        std::runtime_error);
    // The pool survives a throwing loop and keeps working.
    std::atomic<int> count{0};
    parallelFor(0, 32, 1, [&](size_t) { ++count; });
    EXPECT_EQ(count.load(), 32);
}

TEST(ParallelForTest, NestedCallsRunInline)
{
    ThreadGuard guard;
    setParallelThreads(4);
    std::vector<std::atomic<int>> visits(16 * 16);
    parallelFor(0, 16, 1, [&](size_t outer) {
        parallelFor(0, 16, 1, [&](size_t inner) {
            ++visits[outer * 16 + inner];
        });
    });
    for (auto &v : visits)
        EXPECT_EQ(v.load(), 1);
}

TEST(ParallelForTest, SingleThreadFallbackRunsOnCaller)
{
    ThreadGuard guard;
    setParallelThreads(1);
    EXPECT_EQ(parallelThreadCount(), 1u);
    const auto caller = std::this_thread::get_id();
    parallelFor(0, 64, 1, [&](size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
    });
}

TEST(ParallelForTest, EnvVariableControlsDefaultWidth)
{
    // defaultThreadCount() is what the global pool is sized with on
    // first use; exercise its parsing directly.
    setenv("ANAHEIM_THREADS", "1", 1);
    EXPECT_EQ(defaultThreadCount(), 1u);
    setenv("ANAHEIM_THREADS", "6", 1);
    EXPECT_EQ(defaultThreadCount(), 6u);
    setenv("ANAHEIM_THREADS", "999999", 1);
    EXPECT_EQ(defaultThreadCount(), ThreadPool::kMaxThreads);
    setenv("ANAHEIM_THREADS", "garbage", 1);
    EXPECT_GE(defaultThreadCount(), 1u); // falls back to hardware
    unsetenv("ANAHEIM_THREADS");
    EXPECT_GE(defaultThreadCount(), 1u);
}

// ---------------------------------------------------------------------
// Determinism property: limb partitioning only, so the parallel engine
// must be bitwise identical to the serial fallback on every hot path.
// ---------------------------------------------------------------------

Polynomial
randomPolynomial(const RnsBasis &basis, uint64_t seed, Domain domain)
{
    Rng rng(seed);
    Polynomial p(basis, domain);
    for (size_t i = 0; i < basis.size(); ++i)
        p.limb(i) = sampleUniform(rng, basis.degree(), basis.prime(i));
    return p;
}

class ParallelDeterminismTest : public ::testing::Test
{
  protected:
    ParallelDeterminismTest()
        : context_(CkksParams::testParams(1 << 10, 6, 2))
    {
    }

    CkksContext context_;
    ThreadGuard guard_;
};

TEST_F(ParallelDeterminismTest, NttRoundTripMatchesSerial)
{
    const auto base =
        randomPolynomial(context_.qBasis(), 1234, Domain::Coeff);

    setParallelThreads(1);
    Polynomial serial = base;
    serial.toEval();
    Polynomial serialBack = serial;
    serialBack.toCoeff();

    setParallelThreads(4);
    Polynomial parallel = base;
    parallel.toEval();
    Polynomial parallelBack = parallel;
    parallelBack.toCoeff();

    EXPECT_TRUE(serial == parallel);
    EXPECT_TRUE(serialBack == parallelBack);
    EXPECT_TRUE(serialBack == base);
}

TEST_F(ParallelDeterminismTest, ElementWiseOpsMatchSerial)
{
    const auto a = randomPolynomial(context_.qBasis(), 5, Domain::Eval);
    const auto b = randomPolynomial(context_.qBasis(), 6, Domain::Eval);

    setParallelThreads(1);
    Polynomial sumS = a + b;
    Polynomial prodS = mul(a, b);
    Polynomial macS = a;
    macS.macEq(a, b);

    setParallelThreads(4);
    Polynomial sumP = a + b;
    Polynomial prodP = mul(a, b);
    Polynomial macP = a;
    macP.macEq(a, b);

    EXPECT_TRUE(sumS == sumP);
    EXPECT_TRUE(prodS == prodP);
    EXPECT_TRUE(macS == macP);
}

TEST_F(ParallelDeterminismTest, BasisConversionMatchesSerial)
{
    const BasisConverter conv(context_.qBasis(), context_.pBasis());
    Rng rng(99);
    std::vector<CoeffVector> input(context_.qBasis().size());
    for (size_t i = 0; i < input.size(); ++i) {
        input[i] = sampleUniform(rng, context_.degree(),
                                 context_.qBasis().prime(i));
    }

    setParallelThreads(1);
    const auto serial = conv.convert(input);
    setParallelThreads(4);
    const auto parallel = conv.convert(input);
    EXPECT_EQ(serial, parallel);

    // The direct scalar path agrees with the vector path on width-1
    // inputs.
    std::vector<uint64_t> residues(input.size());
    for (size_t i = 0; i < input.size(); ++i)
        residues[i] = input[i][0];
    const auto scalar = conv.convertScalar(residues);
    ASSERT_EQ(scalar.size(), serial.size());
    for (size_t j = 0; j < scalar.size(); ++j)
        EXPECT_EQ(scalar[j], serial[j][0]) << "target limb " << j;
}

TEST_F(ParallelDeterminismTest, KeySwitchMatchesSerial)
{
    KeyGenerator keygen(context_, 7);
    const EvalKey evk = keygen.makeRelinKey();
    const KeySwitcher switcher(context_);

    // Full basis, and two levels down where KeyMult's per-limb tasks
    // read the key's P limbs at an offset.
    const size_t maxLevel = context_.maxLevel();
    for (const size_t level : {maxLevel, maxLevel - 2}) {
        SCOPED_TRACE(testing::Message() << "level " << level);
        const auto a = randomPolynomial(context_.levelBasis(level),
                                        31 + maxLevel - level,
                                        Domain::Eval);

        setParallelThreads(1);
        const auto [d0s, d1s] = switcher.keySwitch(a, evk);
        setParallelThreads(4);
        const auto [d0p, d1p] = switcher.keySwitch(a, evk);

        EXPECT_TRUE(d0s == d0p);
        EXPECT_TRUE(d1s == d1p);
    }
}

TEST_F(ParallelDeterminismTest, DftFactorBuildMatchesSerial)
{
    // materialize() propagates one column per task through the butterfly
    // stages (whose own parallelFor runs inline when nested).
    const DftPlan plan(size_t{1} << 10, 2);
    const DftPlan::Complex scale{0.75, -0.5};

    setParallelThreads(1);
    const auto ctsSerial = plan.coeffToSlotFactors(scale);
    const auto stcSerial = plan.slotToCoeffFactors(scale);
    setParallelThreads(4);
    const auto ctsParallel = plan.coeffToSlotFactors(scale);
    const auto stcParallel = plan.slotToCoeffFactors(scale);

    ASSERT_EQ(ctsSerial.size(), ctsParallel.size());
    for (size_t f = 0; f < ctsSerial.size(); ++f)
        EXPECT_TRUE(ctsSerial[f].diagonals() == ctsParallel[f].diagonals())
            << "CoeffToSlot factor " << f;
    ASSERT_EQ(stcSerial.size(), stcParallel.size());
    for (size_t f = 0; f < stcSerial.size(); ++f)
        EXPECT_TRUE(stcSerial[f].diagonals() == stcParallel[f].diagonals())
            << "SlotToCoeff factor " << f;
}

TEST(BConvValidationTest, RaggedInputIsRejected)
{
    const auto primes = generateNttPrimes(8, 30, 3);
    const RnsBasis source({primes[0], primes[1]}, 8);
    const RnsBasis target({primes[2]}, 8);
    const BasisConverter conv(source, target);
    std::vector<CoeffVector> ragged = {CoeffVector(8, 1),
                                       CoeffVector(4, 1)};
    EXPECT_ANAHEIM_ERROR(conv.convert(ragged), InvalidArgument,
                         "ragged input");
    std::vector<CoeffVector> empty = {CoeffVector(), CoeffVector()};
    EXPECT_ANAHEIM_ERROR(conv.convert(empty), InvalidArgument,
                         "zero-length limbs");
    std::vector<CoeffVector> shortCount = {CoeffVector(8, 1)};
    EXPECT_ANAHEIM_ERROR(conv.convert(shortCount), InvalidArgument,
                         "limb count mismatch");
}

} // namespace
} // namespace anaheim
