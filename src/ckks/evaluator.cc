#include "evaluator.h"

#include <cmath>
#include <utility>

#include "common/logging.h"
#include "math/kernels.h"
#include "math/modarith.h"

namespace anaheim {

namespace {

// Scales matching within this relative bound are treated as equal; the
// residual mismatch injects at most this much relative error. Larger
// mismatches trigger exact scale adjustment (see alignScales).
constexpr double kScaleTolerance = 1e-9;

/** Same level and scale: add/sub read y in place, no align/match. */
bool
alreadyAligned(const Ciphertext &x, const Ciphertext &y)
{
    return x.level == y.level &&
           std::abs(x.scale - y.scale) <= kScaleTolerance * x.scale;
}

void
checkScalesMatch(double a, double b)
{
    ANAHEIM_ASSERT(std::abs(a - b) <= 1e-4 * std::abs(a),
                   "scale mismatch: ", a, " vs ", b);
}

} // namespace

Ciphertext
CkksEvaluator::adjustScaleTo(const Ciphertext &x, double targetScale) const
{
    // Multiply by the constant 1.0 encoded at exactly the scale that
    // lands on targetScale after one rescale. The constant's rounding
    // error is ~2^-logScale relative, so the adjustment is essentially
    // exact — this is what keeps deep circuits (EvalMod's double-angle
    // chain) from amplifying scale drift into the message.
    ANAHEIM_ASSERT(x.level >= 2, "cannot adjust scale at level 1");
    const uint64_t qLast = x.b.basis().prime(x.level - 1);
    const double needed =
        targetScale * static_cast<double>(qLast) / x.scale;
    ANAHEIM_ASSERT(needed >= 1.0, "scale adjustment would underflow");
    const std::vector<std::complex<double>> one(encoder_.slots(),
                                                {1.0, 0.0});
    const Plaintext pt = encoder_.encode(one, x.level, needed);
    return rescale(mulPlain(x, pt));
}

void
CkksEvaluator::alignScales(Ciphertext &x, Ciphertext &y) const
{
    if (std::abs(x.scale - y.scale) <= kScaleTolerance * x.scale)
        return;
    // Adjust the operand with more spare levels; the adjustment costs
    // one level. When neither side can pay, fall back to tolerating
    // the (asserted-small) mismatch.
    Ciphertext *adjust = x.level >= y.level ? &x : &y;
    const Ciphertext *other = adjust == &x ? &y : &x;
    if (adjust->level < 2) {
        checkScalesMatch(x.scale, y.scale);
        return;
    }
    *adjust = adjustScaleTo(*adjust, other->scale);
}

void
CkksEvaluator::matchLevels(Ciphertext &x, Ciphertext &y) const
{
    if (x.level > y.level)
        x = dropToLevel(x, y.level);
    else if (y.level > x.level)
        y = dropToLevel(y, x.level);
}

Ciphertext
CkksEvaluator::dropToLevel(const Ciphertext &x, size_t level) const
{
    ANAHEIM_ASSERT(level >= 1 && level <= x.level,
                   "cannot raise level by truncation");
    if (level == x.level)
        return x;
    Ciphertext out;
    out.b = x.b.firstLimbs(level);
    out.a = x.a.firstLimbs(level);
    out.level = level;
    out.scale = x.scale;
    return out;
}

Ciphertext
CkksEvaluator::add(const Ciphertext &x, const Ciphertext &y) const
{
    if (alreadyAligned(x, y)) {
        Ciphertext out = x;
        out.b += y.b;
        out.a += y.a;
        return out;
    }
    Ciphertext lhs = x, rhs = y;
    alignScales(lhs, rhs);
    matchLevels(lhs, rhs);
    checkScalesMatch(lhs.scale, rhs.scale);
    lhs.b += rhs.b;
    lhs.a += rhs.a;
    return lhs;
}

Ciphertext
CkksEvaluator::sub(const Ciphertext &x, const Ciphertext &y) const
{
    if (alreadyAligned(x, y)) {
        Ciphertext out = x;
        out.b -= y.b;
        out.a -= y.a;
        return out;
    }
    Ciphertext lhs = x, rhs = y;
    alignScales(lhs, rhs);
    matchLevels(lhs, rhs);
    checkScalesMatch(lhs.scale, rhs.scale);
    lhs.b -= rhs.b;
    lhs.a -= rhs.a;
    return lhs;
}

Ciphertext
CkksEvaluator::negate(const Ciphertext &x) const
{
    Ciphertext out = x;
    out.b.negate();
    out.a.negate();
    return out;
}

Ciphertext
CkksEvaluator::addPlain(const Ciphertext &x, const Plaintext &pt) const
{
    ANAHEIM_ASSERT(pt.level >= x.level, "plaintext level too low");
    checkScalesMatch(x.scale, pt.scale);
    Ciphertext out = x;
    out.b += pt.poly.firstLimbs(x.level);
    return out;
}

Ciphertext
CkksEvaluator::subPlain(const Ciphertext &x, const Plaintext &pt) const
{
    ANAHEIM_ASSERT(pt.level >= x.level, "plaintext level too low");
    checkScalesMatch(x.scale, pt.scale);
    Ciphertext out = x;
    out.b -= pt.poly.firstLimbs(x.level);
    return out;
}

Ciphertext
CkksEvaluator::mulPlain(const Ciphertext &x, const Plaintext &pt) const
{
    ANAHEIM_ASSERT(pt.level >= x.level, "plaintext level too low");
    Ciphertext out = x;
    const Polynomial p = pt.poly.firstLimbs(x.level);
    out.b.mulEq(p);
    out.a.mulEq(p);
    out.scale = x.scale * pt.scale;
    return out;
}

Ciphertext
CkksEvaluator::mulConst(const Ciphertext &x,
                        std::complex<double> value) const
{
    const std::vector<std::complex<double>> msg(encoder_.slots(), value);
    const Plaintext pt = encoder_.encode(msg, x.level);
    return mulPlain(x, pt);
}

Ciphertext
CkksEvaluator::mulInteger(const Ciphertext &x, int64_t value) const
{
    Ciphertext out = x;
    std::vector<uint64_t> scalars(x.level);
    for (size_t i = 0; i < x.level; ++i)
        scalars[i] = fromSigned(value, x.b.basis().prime(i));
    out.b.mulScalarEq(scalars);
    out.a.mulScalarEq(scalars);
    return out;
}

Ciphertext
CkksEvaluator::addConst(const Ciphertext &x,
                        std::complex<double> value) const
{
    const std::vector<std::complex<double>> msg(encoder_.slots(), value);
    const Plaintext pt = encoder_.encode(msg, x.level, x.scale);
    return addPlain(x, pt);
}

Ciphertext
CkksEvaluator::multiply(const Ciphertext &x, const Ciphertext &y,
                        const EvalKey &relinKey) const
{
    if (x.level > y.level)
        return multiply(dropToLevel(x, y.level), y, relinKey);
    if (y.level > x.level)
        return multiply(x, dropToLevel(y, x.level), relinKey);

    // Tensor: (b1, a1) x (b2, a2) -> (b1*b2, b1*a2 + a1*b2, a1*a2).
    Polynomial d0 = x.b;
    d0.mulEq(y.b);
    Polynomial d1 = x.b;
    d1.mulEq(y.a);
    d1.macEq(x.a, y.b);
    Polynomial d2 = x.a;
    d2.mulEq(y.a);

    // Relinearize the s^2 component back onto (1, s).
    auto [k0, k1] = switcher_.keySwitch(d2, relinKey);
    Ciphertext out;
    out.b = std::move(d0) + k0;
    out.a = std::move(d1) + k1;
    out.level = x.level;
    out.scale = x.scale * y.scale;
    return out;
}

Ciphertext
CkksEvaluator::square(const Ciphertext &x, const EvalKey &relinKey) const
{
    return multiply(x, x, relinKey);
}

Ciphertext
CkksEvaluator::rescale(const Ciphertext &x) const
{
    ANAHEIM_ASSERT(x.level >= 2, "no prime left to rescale by");
    const size_t level = x.level;
    const RnsBasis &basis = x.b.basis();
    const uint64_t qLast = basis.prime(level - 1);
    Ciphertext out;
    out.level = level - 1;
    out.scale = x.scale / static_cast<double>(qLast);

    for (const Polynomial *src : {&x.b, &x.a}) {
        // INTT the last limb once, then fold it into every lower limb.
        CoeffVector last = src->limb(level - 1);
        basis.table(level - 1).inverse(last);

        Polynomial dst(basis.slice(0, level - 1), Domain::Eval);
        for (size_t i = 0; i + 1 < level; ++i) {
            const uint64_t qi = basis.prime(i);
            const ShoupMul qLastInv(invMod(qLast % qi, qi), qi);
            // Centered lift of the last limb into q_i for lower noise.
            std::vector<uint64_t> lifted(last.size());
            for (size_t c = 0; c < last.size(); ++c) {
                const uint64_t v = last[c];
                lifted[c] = v > qLast / 2
                                ? subMod(v % qi, qLast % qi, qi)
                                : v % qi;
            }
            basis.table(i).forward(lifted);
            const auto &limb = src->limb(i);
            auto &dstLimb = dst.limb(i);
            kernels::active().subMulShoup(
                dstLimb.data(), limb.data(), lifted.data(), limb.size(),
                qLastInv.operand(), qLastInv.precon(), qi);
        }
        if (src == &x.b)
            out.b = std::move(dst);
        else
            out.a = std::move(dst);
    }
    return out;
}

Ciphertext
CkksEvaluator::applyGalois(const Ciphertext &x, uint64_t galoisElt,
                           const GaloisKeys &keys) const
{
    const auto it = keys.find(galoisElt);
    ANAHEIM_ASSERT(it != keys.end(), "missing Galois key for k=",
                   galoisElt);
    Ciphertext out;
    out.level = x.level;
    out.scale = x.scale;
    out.b = x.b.automorphism(galoisElt);
    const Polynomial rotatedA = x.a.automorphism(galoisElt);
    auto [d0, d1] = switcher_.keySwitch(rotatedA, it->second);
    out.b += d0;
    out.a = std::move(d1);
    return out;
}

Ciphertext
CkksEvaluator::rotate(const Ciphertext &x, int rotation,
                      const GaloisKeys &keys) const
{
    const uint64_t k =
        KeyGenerator::rotationGaloisElt(rotation, context_.degree());
    if (k == 1)
        return x;
    return applyGalois(x, k, keys);
}

Ciphertext
CkksEvaluator::conjugate(const Ciphertext &x, const GaloisKeys &keys) const
{
    return applyGalois(
        x, KeyGenerator::conjugationGaloisElt(context_.degree()), keys);
}

std::vector<Ciphertext>
CkksEvaluator::rotateHoisted(const Ciphertext &x,
                             const std::vector<int> &rotations,
                             const GaloisKeys &keys) const
{
    // ModUp once (the hoisting optimization); per rotation only the
    // cheap automorphism of the digits, KeyMult and ModDown remain.
    const auto digits = switcher_.modUp(x.a);

    std::vector<Ciphertext> out;
    out.reserve(rotations.size());
    for (int r : rotations) {
        const uint64_t k =
            KeyGenerator::rotationGaloisElt(r, context_.degree());
        if (k == 1) {
            out.push_back(x);
            continue;
        }
        const auto it = keys.find(k);
        ANAHEIM_ASSERT(it != keys.end(), "missing Galois key for r=", r);
        std::vector<Polynomial> rotated;
        rotated.reserve(digits.size());
        for (const auto &digit : digits)
            rotated.push_back(digit.automorphism(k));
        auto [d0, d1] = switcher_.keyMult(rotated, it->second);
        Ciphertext ct;
        ct.level = x.level;
        ct.scale = x.scale;
        ct.b = x.b.automorphism(k) + switcher_.modDown(d0);
        ct.a = switcher_.modDown(d1);
        out.push_back(std::move(ct));
    }
    return out;
}

} // namespace anaheim
