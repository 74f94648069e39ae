#include "builders.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace anaheim {

namespace {

KernelOp
make(KernelType type, const char *phase, size_t n, size_t limbs,
     size_t fanIn, decltype(KernelOp::reads) reads,
     decltype(KernelOp::writes) writes, bool pimEligible)
{
    KernelOp op;
    op.type = type;
    op.phase = phase;
    op.n = n;
    op.limbs = limbs;
    op.fanIn = fanIn;
    op.reads = reads;
    op.writes = writes;
    op.pimEligible = pimEligible;
    return op;
}

} // namespace

TraceParams
TraceParams::forDnum(size_t dnum)
{
    // Total limb budget L + alpha ~ 68 from log PQ < 1623 at ~24-bit
    // effective primes; L = budget * D / (D + 1) (Table IV is D = 4).
    TraceParams params;
    switch (dnum) {
      case 2: params.level = 45; params.alpha = 23; break;
      case 3: params.level = 51; params.alpha = 17; break;
      case 4: params.level = 54; params.alpha = 14; break;
      case 6: params.level = 58; params.alpha = 10; break;
      default:
        params.level = 68 * dnum / (dnum + 1);
        params.alpha = (params.level + dnum - 1) / dnum;
        break;
    }
    return params;
}

OpSequence
buildHAdd(const TraceParams &params)
{
    OpSequence seq;
    seq.name = "HADD";
    seq.n = params.n;
    const size_t l = params.level;
    seq.ops.push_back(make(KernelType::EwAdd, "HADD", params.n, 2 * l, 1,
                           {{OperandKind::Working, 4 * l}},
                           {{OperandKind::Working, 2 * l}}, true));
    return seq;
}

OpSequence
buildPMult(const TraceParams &params)
{
    OpSequence seq;
    seq.name = "PMULT";
    seq.n = params.n;
    const size_t l = params.level;
    seq.ops.push_back(make(KernelType::EwPMult, "PMULT", params.n, l, 1,
                           {{OperandKind::Working, 2 * l},
                            {OperandKind::PlainConst, l}},
                           {{OperandKind::Working, 2 * l}}, true));
    return seq;
}

OpSequence
buildKeySwitch(const TraceParams &params, const char *phase)
{
    OpSequence seq;
    seq.name = "KeySwitch";
    seq.n = params.n;
    const size_t l = params.level;
    const size_t alpha = params.alpha;
    const size_t ext = params.extended();
    const size_t digits = params.digits();

    // ModUp: per digit INTT -> BConv -> NTT (§II-B).
    for (size_t j = 0; j < digits; ++j) {
        const size_t digitLimbs = std::min(alpha, l - j * alpha);
        const size_t outLimbs = ext - digitLimbs;
        seq.ops.push_back(make(KernelType::Intt, "ModUp", params.n,
                               digitLimbs, 1,
                               {{OperandKind::Working, digitLimbs}},
                               {{OperandKind::Intermediate, digitLimbs}},
                               false));
        seq.ops.push_back(make(KernelType::BConv, "ModUp", params.n,
                               outLimbs, digitLimbs,
                               {{OperandKind::Intermediate, digitLimbs}},
                               {{OperandKind::Intermediate, outLimbs}},
                               false));
        seq.ops.push_back(make(KernelType::Ntt, "ModUp", params.n,
                               outLimbs, 1,
                               {{OperandKind::Intermediate, outLimbs}},
                               {{OperandKind::Intermediate, outLimbs}},
                               false));
    }

    // KeyMult: PAccum<D> over the extended modulus — the element-wise
    // block Anaheim offloads.
    seq.ops.push_back(make(KernelType::EwPAccum, phase, params.n, ext,
                           digits,
                           {{OperandKind::Working, digits * ext},
                            {OperandKind::Evk, 2 * digits * ext}},
                           {{OperandKind::Intermediate, 2 * ext}}, true));

    // ModDown on both result polynomials.
    for (int poly = 0; poly < 2; ++poly) {
        seq.ops.push_back(make(KernelType::Intt, "ModDown", params.n,
                               alpha, 1,
                               {{OperandKind::Intermediate, alpha}},
                               {{OperandKind::Intermediate, alpha}},
                               false));
        seq.ops.push_back(make(KernelType::BConv, "ModDown", params.n, l,
                               alpha,
                               {{OperandKind::Intermediate, alpha}},
                               {{OperandKind::Intermediate, l}}, false));
        seq.ops.push_back(make(KernelType::Ntt, "ModDown", params.n, l, 1,
                               {{OperandKind::Intermediate, l}},
                               {{OperandKind::Intermediate, l}}, false));
        seq.ops.push_back(make(KernelType::EwModDownEp, "ModDown",
                               params.n, l, 1,
                               {{OperandKind::Intermediate, 2 * l}},
                               {{OperandKind::Working, l}}, true));
    }
    return seq;
}

OpSequence
buildRescale(const TraceParams &params)
{
    OpSequence seq;
    seq.name = "Rescale";
    seq.n = params.n;
    const size_t l = params.level;
    for (int poly = 0; poly < 2; ++poly) {
        seq.ops.push_back(make(KernelType::Intt, "Rescale", params.n, 1, 1,
                               {{OperandKind::Working, 1}},
                               {{OperandKind::Intermediate, 1}}, false));
        seq.ops.push_back(make(KernelType::Ntt, "Rescale", params.n, l - 1,
                               1, {{OperandKind::Intermediate, l - 1}},
                               {{OperandKind::Intermediate, l - 1}},
                               false));
        seq.ops.push_back(make(KernelType::EwModDownEp, "Rescale",
                               params.n, l - 1, 1,
                               {{OperandKind::Working, l - 1},
                                {OperandKind::Intermediate, l - 1}},
                               {{OperandKind::Working, l - 1}}, true));
    }
    return seq;
}

OpSequence
buildHMult(const TraceParams &params, const TraceOptions &options)
{
    (void)options;
    OpSequence seq;
    seq.name = "HMULT";
    seq.n = params.n;
    const size_t l = params.level;

    seq.ops.push_back(make(KernelType::EwTensor, "Tensor", params.n, l, 1,
                           {{OperandKind::Working, 4 * l}},
                           {{OperandKind::Intermediate, 3 * l}}, true));
    seq.append(buildKeySwitch(params, "KeyMult"));
    seq.ops.push_back(make(KernelType::EwAdd, "Relin", params.n, 2 * l, 1,
                           {{OperandKind::Working, 4 * l}},
                           {{OperandKind::Working, 2 * l}}, true));
    seq.append(buildRescale(params));
    return seq;
}

OpSequence
buildHRot(const TraceParams &params, const TraceOptions &options)
{
    (void)options;
    OpSequence seq;
    seq.name = "HROT";
    seq.n = params.n;
    const size_t l = params.level;
    const size_t ext = params.extended();

    // Fig. 1 (left): ModUp -> KeyMult -> MAC -> automorphism -> ModDown.
    OpSequence ks = buildKeySwitch(params, "KeyMult");
    // Insert MAC + automorphism between KeyMult and ModDown: find the
    // first ModDown op in the keyswitch trace.
    size_t insertAt = ks.ops.size();
    for (size_t i = 0; i < ks.ops.size(); ++i) {
        if (ks.ops[i].phase == "ModDown") {
            insertAt = i;
            break;
        }
    }
    std::vector<KernelOp> tail(ks.ops.begin() + insertAt, ks.ops.end());
    ks.ops.resize(insertAt);
    ks.ops.push_back(make(KernelType::EwCMac, "MAC", params.n, 2 * ext, 1,
                          {{OperandKind::Intermediate, 2 * ext},
                           {OperandKind::Working, 2 * l}},
                          {{OperandKind::Intermediate, 2 * ext}}, true));
    ks.ops.push_back(make(KernelType::Automorphism, "Automorphism",
                          params.n, 2 * ext, 1,
                          {{OperandKind::Intermediate, 2 * ext}},
                          {{OperandKind::Intermediate, 2 * ext}}, false));
    ks.ops.insert(ks.ops.end(), tail.begin(), tail.end());
    seq.append(ks);
    return seq;
}

OpSequence
buildLinearTransform(const TraceParams &params, size_t k,
                     TraceLtAlgorithm algorithm,
                     const TraceOptions &options)
{
    OpSequence seq;
    seq.name = "LinearTransform";
    seq.n = params.n;
    const size_t l = params.level;
    const size_t ext = params.extended();
    const size_t digits = params.digits();

    switch (algorithm) {
      case TraceLtAlgorithm::Base:
      case TraceLtAlgorithm::MinKS: {
        // K full HROT evaluations (MinKS differs only in reusing one
        // evk; on GPUs the evk streams from DRAM either way, §III-C).
        for (size_t i = 0; i < k; ++i)
            seq.append(buildHRot(params, options));
        // PMULT of each rotated ciphertext and accumulation.
        if (options.basicFuse) {
            seq.ops.push_back(make(
                KernelType::EwPAccum, "MAC", params.n, l, k,
                {{OperandKind::Working, 2 * k * l},
                 {OperandKind::PlainConst, k * l}},
                {{OperandKind::Working, 2 * l}}, true));
        } else {
            for (size_t i = 0; i < k; ++i) {
                seq.ops.push_back(make(KernelType::EwPMult, "MAC",
                                       params.n, l, 1,
                                       {{OperandKind::Working, 2 * l},
                                        {OperandKind::PlainConst, l}},
                                       {{OperandKind::Intermediate, 2 * l}},
                                       true));
                seq.ops.push_back(make(KernelType::EwAdd, "MAC", params.n,
                                       2 * l, 1,
                                       {{OperandKind::Intermediate, 4 * l}},
                                       {{OperandKind::Intermediate, 2 * l}},
                                       true));
            }
        }
        break;
      }
      case TraceLtAlgorithm::Hoisting: {
        // Fig. 5: one ModUp; per-baby-rotation KeyMult; PMULT +
        // accumulation in the extended modulus PQ; one ModDown;
        // AutAccum. With the BSGS decomposition (footnote 1) only
        // ~sqrt(K) baby rotations share the hoisted ModUp, while each
        // of the ~sqrt(K) giant-step groups pays a full keyswitch
        // after its inner accumulation. All K diagonal plaintexts
        // stream regardless.
        const size_t babies = std::min(
            k, static_cast<size_t>(
                   std::ceil(std::sqrt(static_cast<double>(k)))));
        const size_t giants =
            k <= babies ? 0 : (k + babies - 1) / babies - 1;
        const size_t rotations = babies;
        const OpSequence ks = buildKeySwitch(params, "KeyMult");
        // ModUp part of the keyswitch trace (everything before KeyMult).
        for (const auto &op : ks.ops) {
            if (op.phase == "ModUp")
                seq.ops.push_back(op);
        }
        for (size_t i = 0; i < rotations; ++i) {
            seq.ops.push_back(make(
                KernelType::EwPAccum, "KeyMult", params.n, ext, digits,
                {{OperandKind::Working, digits * ext},
                 {OperandKind::Evk, 2 * digits * ext}},
                {{OperandKind::Intermediate, 2 * ext}}, true));
        }
        // PMULT by the (pre-rotated, §V-B) plaintexts and accumulation,
        // for both result polynomials plus the b-part. The fused kernel
        // reads each rotated pair once (reused across the diagonals of
        // its giant-step group) while all K plaintexts stream.
        if (options.basicFuse) {
            seq.ops.push_back(make(
                KernelType::EwPAccum, "MAC", params.n, ext, k,
                {{OperandKind::Intermediate, 2 * rotations * ext},
                 {OperandKind::PlainConst, k * ext}},
                {{OperandKind::Intermediate, 2 * ext}}, true));
            seq.ops.push_back(make(KernelType::EwPAccum, "MAC", params.n,
                                   l, k,
                                   {{OperandKind::Working, 2 * l},
                                    {OperandKind::PlainConst, k * l}},
                                   {{OperandKind::Intermediate, 2 * l}},
                                   true));
        } else {
            for (size_t i = 0; i < k; ++i) {
                seq.ops.push_back(make(
                    KernelType::EwPMac, "MAC", params.n, ext, 1,
                    {{OperandKind::Intermediate, 2 * ext},
                     {OperandKind::PlainConst, ext},
                     {OperandKind::Intermediate, 2 * ext}},
                    {{OperandKind::Intermediate, 2 * ext}}, true));
                seq.ops.push_back(make(
                    KernelType::EwPMac, "MAC", params.n, l, 1,
                    {{OperandKind::Working, 2 * l},
                     {OperandKind::PlainConst, l},
                     {OperandKind::Intermediate, 2 * l}},
                    {{OperandKind::Intermediate, 2 * l}}, true));
            }
        }
        // One hoisted ModDown for the baby accumulation.
        for (const auto &op : ks.ops) {
            if (op.phase == "ModDown")
                seq.ops.push_back(op);
        }
        // Giant-step rotations: one full keyswitch per remaining group.
        for (size_t giant = 0; giant < giants; ++giant)
            seq.append(buildKeySwitch(params, "KeyMult"));
        // AutAccum: the relocated automorphisms fused with the final
        // accumulation (§V-B). Without AutFuse, each automorphism is a
        // separate kernel with its own DRAM round trip (2K reads + 2K
        // writes extra).
        if (options.autFuse) {
            seq.ops.push_back(make(KernelType::Automorphism, "AutAccum",
                                   params.n, 2 * l, 1,
                                   {{OperandKind::Working, 2 * l},
                                    {OperandKind::Intermediate, 2 * l}},
                                   {{OperandKind::Working, 2 * l}},
                                   false));
        } else {
            seq.ops.push_back(make(KernelType::Automorphism,
                                   "Automorphism", params.n, 2 * l, 1,
                                   {{OperandKind::Working, 2 * l}},
                                   {{OperandKind::Intermediate, 2 * l}},
                                   false));
            seq.ops.push_back(make(KernelType::Automorphism,
                                   "Automorphism", params.n, 2 * l, 1,
                                   {{OperandKind::Intermediate, 2 * l}},
                                   {{OperandKind::Intermediate, 2 * l}},
                                   false));
            seq.ops.push_back(make(KernelType::EwAdd, "Accum", params.n,
                                   2 * l, 1,
                                   {{OperandKind::Intermediate, 4 * l}},
                                   {{OperandKind::Working, 2 * l}}, true));
        }
        break;
      }
    }
    return seq;
}

double
bootstrapLevelsEff(const TraceParams &params, double fftIter)
{
    // Level budget: sparse-secret encapsulation + EvalMod + margins
    // consume ~23 levels, plus one level per DFT factor on each side;
    // 13 levels stay reserved below the post-boot point. Calibrated to
    // the paper's schedule (54 -> 24, L_eff = 11 at fftIter mix 3/4).
    const double consumed = 23.0 + 2.0 * fftIter;
    const double remaining = static_cast<double>(params.level) - consumed;
    return std::max(1.0, remaining - 13.0);
}

OpSequence
buildBootstrap(const TraceParams &params, double fftIter,
               TraceLtAlgorithm algorithm, const TraceOptions &options)
{
    OpSequence seq;
    seq.name = "Bootstrap";
    seq.n = params.n;
    const size_t slots = params.n / 2;
    const double logSlots = std::log2(static_cast<double>(slots));

    TraceParams current = params;

    // Sparse-secret encapsulation: one keyswitch at full level.
    seq.append(buildKeySwitch(current, "KeyMult"));
    current.level -= 1;

    // CoeffToSlot: ceil(fftIter) stages; per-stage diagonal count for a
    // radix-r factor is 2r - 1 with r = 2^(log slots / fftIter).
    const size_t stages = static_cast<size_t>(std::ceil(fftIter));
    const size_t radix = static_cast<size_t>(
        std::round(std::pow(2.0, logSlots / fftIter)));
    const size_t kStage = 2 * std::max<size_t>(radix, 2) - 1;
    for (size_t s = 0; s < stages; ++s) {
        seq.append(
            buildLinearTransform(current, kStage, algorithm, options));
        seq.append(buildRescale(current));
        current.level -= 1;
    }
    // Conjugation split: one keyswitch.
    seq.append(buildKeySwitch(current, "KeyMult"));

    // EvalMod on both halves: ~16 HMULTs (Chebyshev babies + giants +
    // recursion + double-angle) spread over 11 levels.
    for (int half = 0; half < 2; ++half) {
        for (int step = 0; step < 16; ++step) {
            TraceParams em = current;
            em.level -= static_cast<size_t>(11.0 * step / 16.0);
            seq.append(buildHMult(em, options));
        }
    }
    current.level -= 11;

    // SlotToCoeff stages.
    for (size_t s = 0; s < stages; ++s) {
        seq.append(
            buildLinearTransform(current, kStage, algorithm, options));
        seq.append(buildRescale(current));
        current.level -= 1;
    }

    seq.levelsEff = bootstrapLevelsEff(params, fftIter);
    return seq;
}

} // namespace anaheim
