/**
 * Pinned bitwise record of the host CKKS outputs.
 *
 * The parallel-determinism tests only compare two runs of the same
 * build, so a change that alters the bits of keySwitch / multiply /
 * rotateHoisted / add the same way at every thread count passes them.
 * This test hashes those outputs on a small ring at fixed seeds and
 * compares each hash with a constant recorded before the keyswitch
 * and evaluator hot paths were rewritten: a performance change to
 * these paths must leave every constant untouched.
 *
 * Inputs are uniform residues straight from the seeded Rng (keys
 * included), so no floating-point sampling or encoding enters the
 * hashed values.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <utility>
#include <vector>

#include "ckks/evaluator.h"
#include "common/rng.h"
#include "poly/checksum.h"

namespace anaheim {
namespace {

class CkksOutputDigest : public ::testing::Test
{
  protected:
    CkksOutputDigest()
        : context_(CkksParams::testParams(1 << 10, 6, 2)),
          encoder_(context_), evaluator_(context_, encoder_), rng_(2024)
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

    /** A key-shaped value: dnum uniform (b, a) pairs over Q || P. */
    EvalKey
    randomKey()
    {
        EvalKey evk;
        for (size_t j = 0; j < context_.dnum(); ++j) {
            evk.b.push_back(randomPoly(context_.qpBasis()));
            evk.a.push_back(randomPoly(context_.qpBasis()));
        }
        return evk;
    }

    Ciphertext
    randomCiphertext(size_t level)
    {
        Ciphertext ct;
        ct.b = randomPoly(context_.levelBasis(level));
        ct.a = randomPoly(context_.levelBasis(level));
        ct.level = level;
        ct.scale = 0x1.0p40;
        return ct;
    }

    static uint64_t
    digest(const Polynomial &p)
    {
        return limbChecksum(polyChecksum(p).perLimb);
    }

    static uint64_t
    digest(const Polynomial &d0, const Polynomial &d1)
    {
        return limbChecksum(std::vector<uint64_t>{
            digest(d0), digest(d1), d0.limbCount(), d1.limbCount()});
    }

    static uint64_t
    digest(const Ciphertext &ct)
    {
        return limbChecksum(
            std::vector<uint64_t>{digest(ct.b, ct.a), ct.level});
    }

    CkksContext context_;
    CkksEncoder encoder_;
    CkksEvaluator evaluator_;
    Rng rng_;
};

TEST_F(CkksOutputDigest, MatchesRecordedValues)
{
    const size_t top = context_.maxLevel();
    const EvalKey relin = randomKey();
    GaloisKeys galois;
    const std::vector<int> rotations = {1, 3};
    for (int r : rotations) {
        galois.emplace(KeyGenerator::rotationGaloisElt(r, context_.degree()),
                       randomKey());
    }
    const Ciphertext x = randomCiphertext(top);
    const Ciphertext y = randomCiphertext(top);
    const Ciphertext low = randomCiphertext(3);
    const KeySwitcher &sw = evaluator_.keySwitcher();

    std::vector<std::pair<const char *, uint64_t>> actual;
    {
        const auto [d0, d1] = sw.keySwitch(x.a, relin);
        actual.emplace_back("keySwitch@top", digest(d0, d1));
    }
    {
        // Level 3 ends inside the second digit, and the key's P limbs
        // sit at an offset from the ciphertext limbs.
        const auto [d0, d1] = sw.keySwitch(low.a, relin);
        actual.emplace_back("keySwitch@3", digest(d0, d1));
    }
    actual.emplace_back("multiply",
                        digest(evaluator_.multiply(x, y, relin)));
    actual.emplace_back("multiply@mixed",
                        digest(evaluator_.multiply(x, low, relin)));
    const auto hoisted = evaluator_.rotateHoisted(x, rotations, galois);
    actual.emplace_back("rotateHoisted[1]", digest(hoisted[0]));
    actual.emplace_back("rotateHoisted[3]", digest(hoisted[1]));
    actual.emplace_back("add", digest(evaluator_.add(x, y)));
    actual.emplace_back("add@mixed", digest(evaluator_.add(low, x)));
    actual.emplace_back("sub", digest(evaluator_.sub(x, y)));
    actual.emplace_back("sub@mixed", digest(evaluator_.sub(x, low)));

    // Recorded with the per-digit macEq KeyMult and the copying
    // add/sub/multiply; identical at 1 and 4 threads and on the
    // avx512 and scalar kernel backends.
    const uint64_t recorded[] = {
        0x928ebd98b29188c5ULL, 0x52681c9bda18a97fULL,
        0x84944a6befbfb18cULL, 0xede03ef2a643dac5ULL,
        0xcb03f82dcc107549ULL, 0xbe1329f9db837659ULL,
        0xca1270e42f4e9aafULL, 0x8f41d51bb7f1228dULL,
        0x690bfab474c88f3fULL, 0xe002ea142f54bcddULL,
    };
    ASSERT_EQ(actual.size(), std::size(recorded));
    for (size_t i = 0; i < actual.size(); ++i) {
        EXPECT_EQ(actual[i].second, recorded[i])
            << actual[i].first << " digest 0x" << std::hex
            << actual[i].second;
    }
}

} // namespace
} // namespace anaheim
