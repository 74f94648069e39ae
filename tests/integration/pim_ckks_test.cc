/**
 * Integration tests: the bit-exact PIM functional unit (28-bit
 * Montgomery MMAC lanes) executing real CKKS kernels must produce
 * exactly what the CPU library computes — the property that makes PIM
 * offloading transparent to the programmer (§V-C).
 */

#include <gtest/gtest.h>

#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "common/rng.h"
#include "math/modarith.h"
#include "pim/functional.h"

namespace anaheim {
namespace {

/** CKKS parameters whose primes all fit the PIM units' 28-bit bound. */
CkksParams
pimFriendlyParams()
{
    CkksParams params;
    params.n = 256;
    params.levels = 4;
    params.alpha = 2;
    params.logScale = 24;
    params.firstModulusBits = 27;
    return params;
}

class PimCkksIntegration : public ::testing::Test
{
  protected:
    PimCkksIntegration()
        : context_(pimFriendlyParams()), encoder_(context_),
          keygen_(context_, 77), rng_(78)
    {
    }

    Polynomial
    randomPoly(const RnsBasis &basis)
    {
        Polynomial p(basis, Domain::Eval);
        for (size_t i = 0; i < basis.size(); ++i)
            p.limb(i) = sampleUniform(rng_, basis.degree(), basis.prime(i));
        return p;
    }

    static PimVector
    toPim(const CoeffVector &limb)
    {
        return PimVector(limb.begin(), limb.end());
    }

    CkksContext context_;
    CkksEncoder encoder_;
    KeyGenerator keygen_;
    Rng rng_;
};

TEST_F(PimCkksIntegration, AllPrimesFitThePimDatapath)
{
    for (size_t i = 0; i < context_.qpBasis().size(); ++i)
        EXPECT_LT(context_.qpBasis().prime(i), 1ULL << 28) << "limb " << i;
}

TEST_F(PimCkksIntegration, KeyMultOnPimMatchesKeySwitcher)
{
    // The paper's centerpiece offload: KeyMult = PAccum<D> per limb.
    const EvalKey evk = keygen_.makeRelinKey();
    const KeySwitcher sw(context_);
    const size_t maxLevel = context_.maxLevel();

    // Below maxLevel the extended limb i of Q_level || P reads key limb
    // i for the Q part but maxLevel + (i - level) for the P part.
    for (const size_t level : {maxLevel, maxLevel - 2}) {
        SCOPED_TRACE(testing::Message() << "level " << level);
        const Polynomial a = randomPoly(context_.levelBasis(level));
        const auto digits = sw.modUp(a);
        const auto [d0, d1] = sw.keyMult(digits, evk);

        // Re-execute the accumulation limb-by-limb on the functional
        // PIM unit, reading the full-QP key directly, and demand
        // bit-exact agreement.
        const RnsBasis extBasis = context_.extendedBasis(level);
        for (size_t limb = 0; limb < extBasis.size(); ++limb) {
            const size_t keyLimb =
                limb < level ? limb : maxLevel + (limb - level);
            ASSERT_EQ(context_.qpBasis().prime(keyLimb),
                      extBasis.prime(limb));
            const PimFunctionalUnit unit(extBasis.prime(limb));
            std::vector<PimVector> aOps, bOps, pOps;
            for (size_t j = 0; j < digits.size(); ++j) {
                aOps.push_back(toPim(evk.b[j].limb(keyLimb)));  // -> x = d0
                bOps.push_back(toPim(evk.a[j].limb(keyLimb)));  // -> y = d1
                pOps.push_back(toPim(digits[j].limb(limb)));
            }
            const auto [x, y] = unit.pAccum(aOps, bOps, pOps);
            for (size_t c = 0; c < x.size(); ++c) {
                ASSERT_EQ(static_cast<uint64_t>(x[c]), d0.limb(limb)[c])
                    << "limb " << limb << " coeff " << c;
                ASSERT_EQ(static_cast<uint64_t>(y[c]), d1.limb(limb)[c])
                    << "limb " << limb << " coeff " << c;
            }
        }
    }
}

TEST_F(PimCkksIntegration, TensorOnPimMatchesEvaluatorTensor)
{
    // HMULT's tensor stage (x = b1*b2, y = b1*a2 + a1*b2, z = a1*a2).
    const size_t level = 3;
    const RnsBasis basis = context_.levelBasis(level);
    const Polynomial b1 = randomPoly(basis);
    const Polynomial a1 = randomPoly(basis);
    const Polynomial b2 = randomPoly(basis);
    const Polynomial a2 = randomPoly(basis);

    Polynomial d0 = b1;
    d0.mulEq(b2);
    Polynomial d1 = b1;
    d1.mulEq(a2);
    d1.macEq(a1, b2);
    Polynomial d2 = a1;
    d2.mulEq(a2);

    for (size_t limb = 0; limb < basis.size(); ++limb) {
        const PimFunctionalUnit unit(basis.prime(limb));
        const auto [x, y, z] =
            unit.tensor(toPim(b1.limb(limb)), toPim(a1.limb(limb)),
                        toPim(b2.limb(limb)), toPim(a2.limb(limb)));
        for (size_t c = 0; c < x.size(); ++c) {
            ASSERT_EQ(static_cast<uint64_t>(x[c]), d0.limb(limb)[c]);
            ASSERT_EQ(static_cast<uint64_t>(y[c]), d1.limb(limb)[c]);
            ASSERT_EQ(static_cast<uint64_t>(z[c]), d2.limb(limb)[c]);
        }
    }
}

TEST_F(PimCkksIntegration, HAddOnPimDecryptsCorrectly)
{
    // Full loop: encrypt on the "GPU", add on the PIM unit, decrypt.
    CkksEncryptor encryptor(context_, 81);
    const CkksDecryptor decryptor(context_, keygen_.secretKey());

    std::vector<std::complex<double>> u(encoder_.slots());
    std::vector<std::complex<double>> v(encoder_.slots());
    for (size_t i = 0; i < u.size(); ++i) {
        u[i] = {0.25 * std::cos(0.1 * i), 0.0};
        v[i] = {0.25 * std::sin(0.1 * i), 0.0};
    }
    const auto ctU = encryptor.encrypt(
        encoder_.encode(u, context_.maxLevel()), keygen_.secretKey());
    const auto ctV = encryptor.encrypt(
        encoder_.encode(v, context_.maxLevel()), keygen_.secretKey());

    Ciphertext sum = ctU;
    for (size_t limb = 0; limb < ctU.b.limbCount(); ++limb) {
        const PimFunctionalUnit unit(ctU.b.basis().prime(limb));
        const auto b = unit.add(toPim(ctU.b.limb(limb)),
                                toPim(ctV.b.limb(limb)));
        const auto a = unit.add(toPim(ctU.a.limb(limb)),
                                toPim(ctV.a.limb(limb)));
        sum.b.limb(limb).assign(b.begin(), b.end());
        sum.a.limb(limb).assign(a.begin(), a.end());
    }

    const auto out = encoder_.decode(decryptor.decrypt(sum));
    for (size_t i = 0; i < u.size(); ++i)
        EXPECT_NEAR(out[i].real(), (u[i] + v[i]).real(), 1e-4) << i;
}

TEST_F(PimCkksIntegration, ModDownEpOnPimMatchesRescaleStep)
{
    // ModDown's element-wise epilogue: x = P^-1 * (a - b) mod q_i.
    const size_t level = context_.maxLevel();
    const RnsBasis basis = context_.levelBasis(level);
    const Polynomial a = randomPoly(basis);
    const Polynomial b = randomPoly(basis);

    for (size_t limb = 0; limb < basis.size(); ++limb) {
        const uint64_t q = basis.prime(limb);
        const uint64_t pInv = context_.pInvModQ()[limb];
        const PimFunctionalUnit unit(q);
        const auto out =
            unit.modDownEp(toPim(a.limb(limb)), toPim(b.limb(limb)),
                           static_cast<uint32_t>(pInv));
        for (size_t c = 0; c < out.size(); ++c) {
            const uint64_t expect = mulMod(
                pInv, subMod(a.limb(limb)[c], b.limb(limb)[c], q), q);
            ASSERT_EQ(static_cast<uint64_t>(out[c]), expect);
        }
    }
}

} // namespace
} // namespace anaheim
