#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "common/rng.h"
#include "math/modarith.h"

namespace anaheim {
namespace {

using Complex = std::complex<double>;

class EvaluatorTest : public ::testing::Test
{
  protected:
    EvaluatorTest()
        : context_(CkksParams::testParams(1 << 10, 6, 2)),
          encoder_(context_), keygen_(context_, 7),
          encryptor_(context_, 17),
          decryptor_(context_, keygen_.secretKey()),
          evaluator_(context_, encoder_)
    {
    }

    std::vector<Complex>
    randomMessage(uint64_t seed, double amplitude = 1.0)
    {
        Rng rng(seed);
        std::vector<Complex> msg(encoder_.slots());
        for (auto &v : msg) {
            v = {amplitude * (2.0 * rng.uniformReal() - 1.0),
                 amplitude * (2.0 * rng.uniformReal() - 1.0)};
        }
        return msg;
    }

    Ciphertext
    encrypt(const std::vector<Complex> &msg,
            size_t level = 0)
    {
        if (level == 0)
            level = context_.maxLevel();
        return encryptor_.encrypt(encoder_.encode(msg, level),
                                  keygen_.secretKey());
    }

    std::vector<Complex>
    decrypt(const Ciphertext &ct)
    {
        return encoder_.decode(decryptor_.decrypt(ct));
    }

    static double
    maxError(const std::vector<Complex> &a, const std::vector<Complex> &b)
    {
        double err = 0.0;
        for (size_t i = 0; i < a.size(); ++i)
            err = std::max(err, std::abs(a[i] - b[i]));
        return err;
    }

    CkksContext context_;
    CkksEncoder encoder_;
    KeyGenerator keygen_;
    CkksEncryptor encryptor_;
    CkksDecryptor decryptor_;
    CkksEvaluator evaluator_;
};

TEST_F(EvaluatorTest, EncryptDecryptRoundTripSymmetric)
{
    const auto msg = randomMessage(1);
    EXPECT_LT(maxError(decrypt(encrypt(msg)), msg), 1e-6);
}

TEST_F(EvaluatorTest, EncryptDecryptRoundTripPublicKey)
{
    const auto msg = randomMessage(2);
    auto pk = keygen_.makePublicKey();
    const auto ct =
        encryptor_.encrypt(encoder_.encode(msg, context_.maxLevel()), pk);
    EXPECT_LT(maxError(decrypt(ct), msg), 1e-5);
}

TEST_F(EvaluatorTest, HAddAddsSlotwise)
{
    const auto u = randomMessage(3);
    const auto v = randomMessage(4);
    const auto sum = evaluator_.add(encrypt(u), encrypt(v));
    auto expect = u;
    for (size_t i = 0; i < expect.size(); ++i)
        expect[i] += v[i];
    EXPECT_LT(maxError(decrypt(sum), expect), 1e-5);
}

TEST_F(EvaluatorTest, HSubSubtractsSlotwise)
{
    const auto u = randomMessage(5);
    const auto v = randomMessage(6);
    const auto diff = evaluator_.sub(encrypt(u), encrypt(v));
    auto expect = u;
    for (size_t i = 0; i < expect.size(); ++i)
        expect[i] -= v[i];
    EXPECT_LT(maxError(decrypt(diff), expect), 1e-5);
}

TEST_F(EvaluatorTest, AddAlignsMismatchedLevels)
{
    const auto u = randomMessage(7);
    const auto v = randomMessage(8);
    const auto low = evaluator_.dropToLevel(encrypt(u), 3);
    const auto sum = evaluator_.add(low, encrypt(v));
    EXPECT_EQ(sum.level, 3u);
    auto expect = u;
    for (size_t i = 0; i < expect.size(); ++i)
        expect[i] += v[i];
    EXPECT_LT(maxError(decrypt(sum), expect), 1e-5);
}

TEST_F(EvaluatorTest, SameLevelPathMatchesLevelMatchingPath)
{
    // Operands one level apart take the align/match path; dropping the
    // higher one by hand first takes the same-level path. Both must
    // produce the same bits.
    const auto relin = keygen_.makeRelinKey();
    const size_t low = context_.maxLevel() - 1;
    const auto x = encrypt(randomMessage(30));
    const auto y = evaluator_.dropToLevel(encrypt(randomMessage(31)), low);
    const auto xLow = evaluator_.dropToLevel(x, low);

    const auto expectSame = [](const Ciphertext &a, const Ciphertext &b) {
        EXPECT_EQ(a.level, b.level);
        EXPECT_EQ(a.scale, b.scale);
        EXPECT_TRUE(a.b == b.b);
        EXPECT_TRUE(a.a == b.a);
    };
    expectSame(evaluator_.multiply(x, y, relin),
               evaluator_.multiply(xLow, y, relin));
    expectSame(evaluator_.multiply(y, x, relin),
               evaluator_.multiply(y, xLow, relin));
    expectSame(evaluator_.add(x, y), evaluator_.add(xLow, y));
    expectSame(evaluator_.sub(x, y), evaluator_.sub(xLow, y));
    expectSame(evaluator_.sub(y, x), evaluator_.sub(y, xLow));
}

TEST_F(EvaluatorTest, SameLevelAddIsComponentwiseSum)
{
    const auto x = encrypt(randomMessage(32));
    const auto y = encrypt(randomMessage(33));
    const auto sum = evaluator_.add(x, y);
    const auto diff = evaluator_.sub(x, y);
    EXPECT_EQ(sum.level, x.level);
    EXPECT_EQ(sum.scale, x.scale);
    EXPECT_TRUE(sum.b == x.b + y.b);
    EXPECT_TRUE(sum.a == x.a + y.a);
    EXPECT_TRUE(diff.b == x.b - y.b);
    EXPECT_TRUE(diff.a == x.a - y.a);
}

TEST_F(EvaluatorTest, SameLevelScaleMismatchStillAligns)
{
    // A scale gap beyond the tolerance at equal levels must not take
    // the in-place path: alignScales retargets x, which costs a level.
    const auto u = randomMessage(34);
    const auto v = randomMessage(35);
    const auto x = encrypt(u);
    auto y = encrypt(v);
    y.scale *= 1.0 + 1e-6;
    ASSERT_EQ(x.level, y.level);

    const auto sum = evaluator_.add(x, y);
    EXPECT_EQ(sum.level, x.level - 1);
    EXPECT_NEAR(sum.scale, y.scale, y.scale * 1e-9);
    auto expect = u;
    for (size_t i = 0; i < expect.size(); ++i)
        expect[i] += v[i];
    EXPECT_LT(maxError(decrypt(sum), expect), 1e-5);
}

TEST_F(EvaluatorTest, PMultMultipliesByPlaintext)
{
    const auto u = randomMessage(9);
    const auto p = randomMessage(10);
    const auto pt = encoder_.encode(p, context_.maxLevel());
    auto prod = evaluator_.mulPlain(encrypt(u), pt);
    prod = evaluator_.rescale(prod);
    auto expect = u;
    for (size_t i = 0; i < expect.size(); ++i)
        expect[i] *= p[i];
    EXPECT_LT(maxError(decrypt(prod), expect), 1e-5);
}

TEST_F(EvaluatorTest, HMultMultipliesSlotwise)
{
    const auto u = randomMessage(11);
    const auto v = randomMessage(12);
    const auto relin = keygen_.makeRelinKey();
    auto prod = evaluator_.multiply(encrypt(u), encrypt(v), relin);
    prod = evaluator_.rescale(prod);
    auto expect = u;
    for (size_t i = 0; i < expect.size(); ++i)
        expect[i] *= v[i];
    EXPECT_LT(maxError(decrypt(prod), expect), 1e-4);
}

TEST_F(EvaluatorTest, MultiplicativeDepthChain)
{
    // Repeated squaring down the level budget: x^(2^k).
    const auto relin = keygen_.makeRelinKey();
    std::vector<Complex> msg(encoder_.slots(), {0.9, 0.0});
    auto ct = encrypt(msg);
    double expect = 0.9;
    for (int depth = 0; depth < 4; ++depth) {
        ct = evaluator_.rescale(evaluator_.square(ct, relin));
        expect *= expect;
    }
    const auto out = decrypt(ct);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_NEAR(out[i].real(), expect, 2e-3);
}

TEST_F(EvaluatorTest, MulConstScalesAllSlots)
{
    const auto u = randomMessage(13);
    auto ct = evaluator_.mulConst(encrypt(u), {0.5, 0.25});
    ct = evaluator_.rescale(ct);
    auto expect = u;
    for (auto &v : expect)
        v *= Complex{0.5, 0.25};
    EXPECT_LT(maxError(decrypt(ct), expect), 1e-5);
}

TEST_F(EvaluatorTest, MulIntegerKeepsScale)
{
    const auto u = randomMessage(14, 0.1);
    auto ct = evaluator_.mulInteger(encrypt(u), -3);
    EXPECT_EQ(ct.level, context_.maxLevel());
    auto expect = u;
    for (auto &v : expect)
        v *= -3.0;
    EXPECT_LT(maxError(decrypt(ct), expect), 1e-5);
}

TEST_F(EvaluatorTest, AddConstShiftsAllSlots)
{
    const auto u = randomMessage(15);
    auto ct = evaluator_.addConst(encrypt(u), {1.5, -0.5});
    auto expect = u;
    for (auto &v : expect)
        v += Complex{1.5, -0.5};
    EXPECT_LT(maxError(decrypt(ct), expect), 1e-5);
}

class RotationTest : public EvaluatorTest,
                     public ::testing::WithParamInterface<int>
{
};

TEST_P(RotationTest, HRotRotatesSlots)
{
    const int r = GetParam();
    const auto u = randomMessage(16);
    GaloisKeys keys = keygen_.makeGaloisKeys({r});
    const auto rotated = evaluator_.rotate(encrypt(u), r, keys);
    const auto out = decrypt(rotated);
    const size_t slots = u.size();
    for (size_t i = 0; i < slots; ++i) {
        const auto expect =
            u[(i + static_cast<size_t>(
                       (r % static_cast<int>(slots) + slots)) %
               slots) %
              slots];
        EXPECT_LT(std::abs(out[i] - expect), 1e-4)
            << "r=" << r << " i=" << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Distances, RotationTest,
                         ::testing::Values(1, 2, 3, 8, 100, 511, -1, -7));

TEST_F(EvaluatorTest, ConjugateConjugatesSlots)
{
    const auto u = randomMessage(17);
    GaloisKeys keys = keygen_.makeGaloisKeys({}, true);
    const auto out = decrypt(evaluator_.conjugate(encrypt(u), keys));
    for (size_t i = 0; i < u.size(); ++i)
        EXPECT_LT(std::abs(out[i] - std::conj(u[i])), 1e-4);
}

TEST_F(EvaluatorTest, HoistedRotationsMatchIndividualRotations)
{
    const auto u = randomMessage(18);
    const std::vector<int> rotations = {1, 2, 4, 8};
    GaloisKeys keys = keygen_.makeGaloisKeys(rotations);
    const auto ct = encrypt(u);
    const auto hoisted = evaluator_.rotateHoisted(ct, rotations, keys);
    ASSERT_EQ(hoisted.size(), rotations.size());
    for (size_t k = 0; k < rotations.size(); ++k) {
        const auto individual = evaluator_.rotate(ct, rotations[k], keys);
        EXPECT_LT(maxError(decrypt(hoisted[k]), decrypt(individual)),
                  1e-5)
            << "rotation " << rotations[k];
    }
}

TEST_F(EvaluatorTest, KeySwitchPreservesProductWithTarget)
{
    // keySwitch(a, evk_t) must yield (d0, d1) with d0 + d1*s ~ a*t.
    const auto relin = keygen_.makeRelinKey(); // t = s^2
    Rng rng(19);
    const RnsBasis basis = context_.levelBasis(context_.maxLevel());
    Polynomial a(basis, Domain::Eval);
    for (size_t i = 0; i < basis.size(); ++i)
        a.limb(i) = sampleUniform(rng, basis.degree(), basis.prime(i));

    KeySwitcher sw(context_);
    auto [d0, d1] = sw.keySwitch(a, relin);

    const auto &s = keygen_.secretKey().s;
    Polynomial lhs = d0;
    lhs.macEq(d1, s.firstLimbs(basis.size()));

    Polynomial sSq = s.firstLimbs(basis.size());
    sSq.mulEq(sSq);
    Polynomial rhs = a;
    rhs.mulEq(sSq);

    // The difference is keyswitching noise: small relative to the
    // 40-bit primes. Check the first limb's centered magnitude.
    Polynomial diff = lhs - rhs;
    diff.toCoeff();
    const uint64_t q0 = basis.prime(0);
    for (size_t c = 0; c < 16; ++c) {
        const int64_t centered = toCentered(diff.limb(0)[c], q0);
        EXPECT_LT(std::abs(centered), int64_t{1} << 36)
            << "noise too large at coeff " << c;
    }
}

TEST_F(EvaluatorTest, RescaleDividesScale)
{
    const auto u = randomMessage(20);
    auto ct = encrypt(u);
    const double before = ct.scale;
    const uint64_t qLast = context_.qBasis().prime(ct.level - 1);
    ct = evaluator_.rescale(ct);
    EXPECT_EQ(ct.level, context_.maxLevel() - 1);
    EXPECT_NEAR(ct.scale, before / static_cast<double>(qLast),
                before * 1e-12);
}

TEST_F(EvaluatorTest, DeepRotationChainStaysAccurate)
{
    // MinKS-style iterated rotation: rotate by 1, eight times, must land
    // on rotation by 8 (the identity MinKS exploits, §III-B).
    const auto u = randomMessage(21);
    GaloisKeys keys = keygen_.makeGaloisKeys({1, 8});
    auto ct = encrypt(u);
    for (int i = 0; i < 8; ++i)
        ct = evaluator_.rotate(ct, 1, keys);
    const auto direct = evaluator_.rotate(encrypt(u), 8, keys);
    EXPECT_LT(maxError(decrypt(ct), decrypt(direct)), 1e-3);
}

} // namespace
} // namespace anaheim
