/**
 * @file
 * CKKS library workloads: `ckks_boot` (bootstrapping on the 2^11 boot
 * ring, one thread) and `ckks_ops` (HMult/HRot/hoisted rotations/HAdd/
 * PMult/rescale on a 2^15 ring whose ciphertexts and keys overflow the
 * private caches), plus the CKKS layer sweep the traced runs report.
 */

#include <algorithm>
#include <cmath>
#include <complex>
#include <memory>
#include <string>
#include <vector>

#include "boot/bootstrapper.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "harness.h"
#include "obs/trace.h"

using namespace anaheim;
using Complex = std::complex<double>;

namespace perfbench {
namespace {

/** Rotations the op mix and the layer sweep use (HRot by 1, hoisted
 *  4-way). */
const std::vector<int> kRotations = {1, 2, 3, 4};

/** One parameter set with its keys and the objects every op needs. */
struct Kit {
    Kit(const CkksParams &params, uint64_t seed)
        : ctx(params), enc(ctx), keygen(ctx, seed), encryptor(ctx, seed + 1),
          decryptor(ctx, keygen.secretKey()), eval(ctx, enc)
    {
    }
    /** Relinearization and rotation keys for the op mix / sweep. */
    void makeOpKeys()
    {
        relin = keygen.makeRelinKey();
        galois = keygen.makeGaloisKeys(kRotations);
    }

    CkksContext ctx;
    CkksEncoder enc;
    KeyGenerator keygen;
    CkksEncryptor encryptor;
    CkksDecryptor decryptor;
    CkksEvaluator eval;
    EvalKey relin;
    GaloisKeys galois;
};

std::vector<Complex>
randomMessage(size_t slots, uint64_t seed, double magnitude)
{
    Rng rng(seed);
    std::vector<Complex> msg(slots);
    for (auto &v : msg)
        v = {magnitude * (2.0 * rng.uniformReal() - 1.0), 0.0};
    return msg;
}

double
maxError(const std::vector<Complex> &got, const std::vector<Complex> &want)
{
    double worst = 0.0;
    for (size_t i = 0; i < want.size(); ++i)
        worst = std::max(worst, std::abs(got[i] - want[i]));
    return worst;
}

std::vector<Complex>
rotated(const std::vector<Complex> &v, int r)
{
    std::vector<Complex> out(v.size());
    for (size_t i = 0; i < v.size(); ++i)
        out[i] = v[(i + static_cast<size_t>(r)) % v.size()];
    return out;
}

void
digestCiphertext(Digest &d, const Ciphertext &ct)
{
    d.u64(ct.level);
    d.f64(ct.scale);
    for (const Polynomial *p : {&ct.b, &ct.a})
        for (const CoeffVector &limb : p->limbs())
            d.words(limb.data(), limb.size());
}

/** Host time of `fn` per call: the median over repeated calls, at least
 *  `minReps` and until `minSeconds` have been spent (capped at 200). */
template <typename Fn>
double
medianCallS(Fn &&fn, int minReps, double minSeconds)
{
    std::vector<double> times;
    const double start = nowS();
    while (times.size() < 200 &&
           (static_cast<int>(times.size()) < minReps ||
            nowS() - start < minSeconds)) {
        const double t0 = nowS();
        fn();
        times.push_back(nowS() - t0);
    }
    return medianOf(std::move(times));
}

/**
 * Per-layer sweep on one ring: NTT (Polynomial::toEval/toCoeff), BConv
 * (BasisConverter::convert on a ModUp digit), ModUp/KeyMult/ModDown and
 * the evaluator ops, each at 1 thread (`.t1`) and at the run's pool
 * width (`.tN`). Leaves the pool at `threadsN`.
 */
void
layerSweep(Kit &kit, const Options &opts, Result &result)
{
    const CkksContext &ctx = kit.ctx;
    const size_t level = ctx.maxLevel();
    const size_t n = ctx.degree();
    const double budget = n >= (1u << 14) ? 0.0 : 0.05;
    const int reps = 3;
    const auto msg = randomMessage(kit.enc.slots(), 7, 1.0);
    const Ciphertext x =
        kit.encryptor.encrypt(kit.enc.encode(msg, level),
                              kit.keygen.secretKey());
    const Plaintext pt = kit.enc.encode(msg, level);

    const size_t alpha = ctx.alpha();
    const RnsBasis digitBasis = ctx.qBasis().slice(0, alpha);
    const RnsBasis ext = ctx.extendedBasis(level);
    const RnsBasis target = ext.slice(alpha, ext.size() - alpha);
    const BasisConverter &conv = ctx.converter(digitBasis, target);
    Polynomial coeffA = x.a;
    coeffA.toCoeff();
    const std::vector<CoeffVector> digit(coeffA.limbs().begin(),
                                         coeffA.limbs().begin() + alpha);
    const KeySwitcher &ks = kit.eval.keySwitcher();
    const auto digits = ks.modUp(x.a);
    const auto [d0, d1] = ks.keyMult(digits, kit.relin);
    const double bconvBytes =
        8.0 * static_cast<double>(n * (alpha + target.size()));

    for (const size_t threads : {size_t{1}, opts.threadsN}) {
        setParallelThreads(threads);
        const std::string tag = threads == 1 ? ".t1" : ".tN";
        const auto us = [&](const char *name, auto &&fn) {
            const double s = medianCallS(fn, reps, budget);
            result.metric(std::string(name) + tag, 1e6 * s, "us");
            return s;
        };
        // Forward and inverse alternate on one copy so each call sees
        // the domain it expects.
        std::vector<double> fwdTimes, invTimes;
        Polynomial q = coeffA;
        const double ntt0 = nowS();
        while (fwdTimes.size() < 200 &&
               (fwdTimes.size() < 8 || nowS() - ntt0 < budget)) {
            double t0 = nowS();
            q.toEval();
            fwdTimes.push_back(nowS() - t0);
            t0 = nowS();
            q.toCoeff();
            invTimes.push_back(nowS() - t0);
        }
        result.metric("math.ntt_fwd_us" + tag, 1e6 * medianOf(fwdTimes),
                      "us");
        result.metric("math.ntt_inv_us" + tag, 1e6 * medianOf(invTimes),
                      "us");
        const double bconvS = us("rns.bconv_us", [&] {
            auto out = conv.convert(digit);
        });
        result.metric("rns.bconv_gbps" + tag, bconvBytes / bconvS * 1e-9,
                      "GB/s");
        us("ckks.modup_us", [&] { auto out = ks.modUp(x.a); });
        us("ckks.keymult_us",
           [&] { auto out = ks.keyMult(digits, kit.relin); });
        us("ckks.moddown_us", [&] { auto out = ks.modDown(d0); });
        us("ckks.hmult_us",
           [&] { auto out = kit.eval.multiply(x, x, kit.relin); });
        us("ckks.hrot_us", [&] { auto out = kit.eval.rotate(x, 1, kit.galois); });
        us("ckks.hoisted_rot_us", [&] {
            auto out = kit.eval.rotateHoisted(x, kRotations, kit.galois);
        });
        us("ckks.hadd_us", [&] { auto out = kit.eval.add(x, x); });
        us("ckks.pmult_us", [&] { auto out = kit.eval.mulPlain(x, pt); });
        const Ciphertext sq = kit.eval.multiply(x, x, kit.relin);
        us("ckks.rescale_us", [&] { auto out = kit.eval.rescale(sq); });
    }
}

/** Error bounds every checked decryption must stay inside. */
constexpr double kOpsErrorBound = 1e-4;
constexpr double kBootErrorBound = 1e-3;

/** Encrypt a seeded level-1 message, bootstrap it, check the decryption.
 *  Returns the bootstrap's host seconds. */
double
bootOnce(Kit &kit, const Bootstrapper &boot, uint64_t seed, uint64_t iter,
         Tracer *t, Result &result)
{
    const uint32_t iterId = t ? t->id("bench.iter") : 0;
    const uint32_t encId = t ? t->id("ckks.encode_encrypt") : 0;
    const uint32_t bootId = t ? t->id("boot.bootstrap") : 0;
    const uint32_t decId = t ? t->id("ckks.decrypt_decode") : 0;
    Scope it(t, iterId, iter);
    // Small messages relative to q0/Delta, per CKKS bootstrap practice.
    const auto msg =
        randomMessage(kit.enc.slots(), mixSeed(seed, iter), 1.0 / 64.0);
    Ciphertext ct;
    {
        Scope s(t, encId, iter);
        ct = kit.encryptor.encrypt(kit.enc.encode(msg, 1),
                                   kit.keygen.secretKey());
    }
    const double t0 = nowS();
    Ciphertext out;
    {
        Scope s(t, bootId, iter);
        out = boot.bootstrap(ct);
    }
    const double bootS = nowS() - t0;
    Scope s(t, decId, iter);
    const double err =
        maxError(kit.enc.decode(kit.decryptor.decrypt(out)), msg);
    char what[96];
    std::snprintf(what, sizeof what,
                  "bootstrap error %.3e (bound %.0e), level %zu", err,
                  kBootErrorBound, out.level);
    result.attempt(err <= kBootErrorBound && out.level == boot.outputLevel(),
                   what);
    return bootS;
}

struct BootKit {
    std::unique_ptr<Kit> kit;
    std::unique_ptr<Bootstrapper> boot;
};

/** ckks_boot set-up: context, keygen and the Bootstrapper (DFT factors
 *  plus its rotation/conjugation/relinearization keys). */
BootKit
makeBootKit(uint64_t seed)
{
    BootKit bk;
    bk.kit = std::make_unique<Kit>(CkksParams::bootstrapParams(1 << 11),
                                   mixSeed(seed, 1000));
    bk.boot = std::make_unique<Bootstrapper>(bk.kit->ctx, bk.kit->enc,
                                             bk.kit->eval, bk.kit->keygen);
    return bk;
}

/** Per-layer boot metrics: `count` traced bootstraps (iterations 0..
 *  count-1 of `seed`) with the library's own boot and keyswitch program
 *  spans on, and Bootstrapper::modRaise alone. Returns the wall time of
 *  the traced bootstraps. */
double
bootLayers(BootKit &bk, uint64_t seed, size_t count, Result &result,
           Tracer *t)
{
    obs::TraceCollector::global().clear();
    obs::setTracingEnabled(true);
    Samples bootS;
    const double start = nowS();
    for (size_t i = 0; i < count; ++i)
        bootS.add(bootOnce(*bk.kit, *bk.boot, seed, i, t, result));
    const double tracedS = nowS() - start;
    obs::setTracingEnabled(false);
    std::map<std::string, std::pair<uint64_t, double>> spans;
    for (const obs::HostSpan &s : obs::TraceCollector::global().hostSpans()) {
        auto &e = spans[s.name];
        ++e.first;
        e.second += s.durUs;
    }
    obs::TraceCollector::global().clear();
    const double per = 1e-3 / static_cast<double>(count); // us -> ms/boot
    result.metric("boot.bootstrap_s", bootS.median(), "s");
    result.metric("boot.coeff_to_slot_ms",
                  per * spans["boot/coeff_to_slot"].second, "ms");
    result.metric("boot.eval_mod_ms", per * spans["boot/eval_mod"].second,
                  "ms");
    result.metric("boot.slot_to_coeff_ms",
                  per * spans["boot/slot_to_coeff"].second, "ms");
    result.metric("boot.keyswitch_ms", per * spans["keyswitch/full"].second,
                  "ms");
    result.metric("boot.keyswitch_calls",
                  static_cast<double>(spans["keyswitch/full"].first) /
                      static_cast<double>(count),
                  "count");
    Result::note("program spans over %zu traced bootstraps:", count);
    for (const auto &[name, e] : spans)
        Result::note("  %-24s %8llu calls %12.3f ms/bootstrap",
                     name.c_str(), static_cast<unsigned long long>(e.first),
                     per * e.second);

    Kit &kit = *bk.kit;
    const auto msg = randomMessage(kit.enc.slots(), seed, 1.0 / 64.0);
    const Ciphertext ct = kit.encryptor.encrypt(kit.enc.encode(msg, 1),
                                                kit.keygen.secretKey());
    result.metric("boot.modraise_ms",
                  1e3 * medianCallS([&] { auto out = bk.boot->modRaise(ct); },
                                    5, 0.05),
                  "ms");
    return tracedS;
}

} // namespace

bool
runCkksBoot(const Options &opts, Result &result)
{
    setParallelThreads(1);
    Samples setup;
    BootKit bk;
    repeatSetup(opts, setup, bk, [&] { return makeBootKit(opts.seed); });
    Result::note("ckks_boot: N=%zu L=%zu dnum=%zu, output level %zu, "
                 "1 thread",
                 bk.kit->ctx.degree(), bk.kit->ctx.maxLevel(),
                 bk.kit->ctx.dnum(), bk.boot->outputLevel());

    Samples bootS;
    const double budget = opts.trace ? opts.seconds / 2 : opts.seconds;
    const double start = nowS();
    uint64_t iter = 0;
    Samples rawS;
    while (iter == 0 || nowS() - start < budget) {
        calibrator().begin();
        const double hostS =
            bootOnce(*bk.kit, *bk.boot, opts.seed, iter++, nullptr, result);
        bootS.add(calibrator().end(hostS).refS);
        rawS.add(hostS);
    }

    if (!opts.trace) {
        reportEndToEnd(result, setup, bootS, rawS, 1.0);
        return true;
    }

    Tracer tracer;
    const double untracedS = nowS() - start;
    const double tracedS =
        bootLayers(bk, opts.seed, bootS.size(), result, &tracer);
    printSelfTimes(result, tracer, untracedS, tracedS);
    if (!opts.spansOut.empty() && !tracer.write(opts.spansOut))
        Result::note("could not write spans to %s", opts.spansOut.c_str());
    bk.kit->makeOpKeys();
    layerSweep(*bk.kit, opts, result);
    setParallelThreads(1);
    probeSimLayers(opts, result, /*haveAnaheim=*/false, /*haveServe=*/false);
    return true;
}

namespace {

/** The ckks_ops round: every op on the same seeded inputs. */
struct Round {
    Ciphertext hmult, rescale, hrot, hadd, pmult;
    std::vector<Ciphertext> hoisted;
};

/** Raw host times per op; `round` is the calibrated round time. */
struct OpSamples {
    Samples hmult, rescale, hrot, hoisted, hadd, pmult, round, roundRaw;
};

Round
runRound(Kit &kit, const Ciphertext &x, const Ciphertext &y,
         const Plaintext &pt, OpSamples &s, Tracer *t, uint64_t iter)
{
    const uint32_t roundId = t ? t->id("bench.round") : 0;
    Scope scope(t, roundId, iter);
    Round out;
    double total = 0.0;
    if (!t)
        calibrator().begin();
    const auto timed = [&](const char *span, Samples &samples, auto &&fn) {
        {
            Scope sp(t, t ? t->id(span) : 0, iter);
            const double t0 = nowS();
            fn();
            const double dt = nowS() - t0;
            samples.add(dt);
            total += dt;
        }
        if (!t)
            calibrator().probe();
    };
    timed("ckks.hmult", s.hmult,
          [&] { out.hmult = kit.eval.multiply(x, y, kit.relin); });
    timed("ckks.rescale", s.rescale,
          [&] { out.rescale = kit.eval.rescale(out.hmult); });
    timed("ckks.hrot", s.hrot,
          [&] { out.hrot = kit.eval.rotate(x, 1, kit.galois); });
    timed("ckks.hoisted_rot", s.hoisted, [&] {
        out.hoisted = kit.eval.rotateHoisted(x, kRotations, kit.galois);
    });
    timed("ckks.hadd", s.hadd, [&] { out.hadd = kit.eval.add(x, y); });
    timed("ckks.pmult", s.pmult, [&] { out.pmult = kit.eval.mulPlain(x, pt); });
    s.roundRaw.add(total);
    s.round.add(t ? total : calibrator().end(total).refS);
    return out;
}

std::string
digestRound(const Round &r)
{
    Digest d;
    for (const Ciphertext *ct :
         {&r.hmult, &r.rescale, &r.hrot, &r.hadd, &r.pmult})
        digestCiphertext(d, *ct);
    for (const Ciphertext &ct : r.hoisted)
        digestCiphertext(d, ct);
    return d.hex();
}

/** Decrypt every output of a round and compare with the plaintext
 *  computation. */
void
checkRound(Kit &kit, const Round &r, const std::vector<Complex> &xm,
           const std::vector<Complex> &ym, const std::vector<Complex> &pm,
           Result &result)
{
    const auto dec = [&](const Ciphertext &ct) {
        return kit.enc.decode(kit.decryptor.decrypt(ct));
    };
    std::vector<Complex> prod(xm.size()), sum(xm.size()), pprod(xm.size());
    for (size_t i = 0; i < xm.size(); ++i) {
        prod[i] = xm[i] * ym[i];
        sum[i] = xm[i] + ym[i];
        pprod[i] = xm[i] * pm[i];
    }
    const auto check = [&](const char *op, const Ciphertext &ct,
                           const std::vector<Complex> &want) {
        const double err = maxError(dec(ct), want);
        char what[96];
        std::snprintf(what, sizeof what, "%s error %.3e (bound %.0e)", op,
                      err, kOpsErrorBound);
        result.attempt(err <= kOpsErrorBound, what);
    };
    check("hmult", r.hmult, prod);
    check("rescale", r.rescale, prod);
    check("hrot", r.hrot, rotated(xm, 1));
    for (size_t k = 0; k < r.hoisted.size(); ++k)
        check("hoisted_rot", r.hoisted[k], rotated(xm, kRotations[k]));
    check("hadd", r.hadd, sum);
    check("pmult", r.pmult, pprod);
}

} // namespace

bool
runCkksOps(const Options &opts, Result &result)
{
    setParallelThreads(opts.threadsN);
    const CkksParams params = CkksParams::testParams(1 << 15, 20, 4);
    Samples setup;
    std::unique_ptr<Kit> kit;
    repeatSetup(opts, setup, kit, [&] {
        auto built = std::make_unique<Kit>(params, mixSeed(opts.seed, 1000));
        built->makeOpKeys();
        return built;
    });
    Result::note("ckks_ops: N=%zu L=%zu alpha=%zu dnum=%zu, %zu threads; "
                 "relin key %.1f MB",
                 kit->ctx.degree(), kit->ctx.maxLevel(), kit->ctx.alpha(),
                 kit->ctx.dnum(), opts.threadsN,
                 kit->relin.sizeBytes() / 1e6);

    const size_t level = kit->ctx.maxLevel();
    const size_t slots = kit->enc.slots();
    const auto xm = randomMessage(slots, mixSeed(opts.seed, 1), 1.0);
    const auto ym = randomMessage(slots, mixSeed(opts.seed, 2), 1.0);
    const auto pm = randomMessage(slots, mixSeed(opts.seed, 3), 1.0);
    const SecretKey &sk = kit->keygen.secretKey();
    const Ciphertext x = kit->encryptor.encrypt(kit->enc.encode(xm, level), sk);
    const Ciphertext y = kit->encryptor.encrypt(kit->enc.encode(ym, level), sk);
    const Plaintext pt = kit->enc.encode(pm, level);

    // Reference round at one thread: decryptions checked against the
    // plaintext results; every later round must match it bitwise.
    setParallelThreads(1);
    OpSamples serial;
    const Round ref = runRound(*kit, x, y, pt, serial, nullptr, 0);
    checkRound(*kit, ref, xm, ym, pm, result);
    const std::string refHex = digestRound(ref);
    setParallelThreads(opts.threadsN);
    Result::note("reference round at 1 thread: %.1f ms",
                 1e3 * serial.roundRaw.sum());

    OpSamples ops;
    const double budget = opts.trace ? opts.seconds / 2 : opts.seconds;
    const double start = nowS();
    uint64_t iter = 0;
    while (iter == 0 || nowS() - start < budget) {
        const Round r = runRound(*kit, x, y, pt, ops, nullptr, ++iter);
        result.attempt(digestRound(r) == refHex,
                       "round differs bitwise from the 1-thread round");
    }
    const std::pair<const char *, const Samples *> perOp[] = {
        {"hmult_ms", &ops.hmult},     {"rescale_ms", &ops.rescale},
        {"hrot_ms", &ops.hrot},       {"hoisted_rot_ms", &ops.hoisted},
        {"hadd_ms", &ops.hadd},       {"pmult_ms", &ops.pmult}};
    for (const auto &[name, samples] : perOp) {
        const auto [pct, tail] = samples->tail();
        Result::note("  %-15s median %9.3f ms, p%.1f %9.3f ms, n=%zu", name,
                     1e3 * samples->median(), pct, 1e3 * tail,
                     samples->size());
    }

    if (!opts.trace) {
        reportEndToEnd(result, setup, ops.round, ops.roundRaw, 1.0);
        return true;
    }

    Tracer tracer;
    OpSamples traced;
    for (uint64_t i = 1; i <= iter; ++i) {
        const Round r = runRound(*kit, x, y, pt, traced, &tracer, i);
        result.attempt(digestRound(r) == refHex,
                       "round differs bitwise from the 1-thread round");
    }
    printSelfTimes(result, tracer, ops.roundRaw.sum(), traced.roundRaw.sum());
    if (!opts.spansOut.empty() && !tracer.write(opts.spansOut))
        Result::note("could not write spans to %s", opts.spansOut.c_str());
    layerSweep(*kit, opts, result);
    kit.reset();
    probeCkksLayers(opts, result, /*haveSweep=*/true);
    probeSimLayers(opts, result, /*haveAnaheim=*/false, /*haveServe=*/false);
    return true;
}

void
probeCkksLayers(const Options &opts, Result &result, bool haveSweep)
{
    const size_t threads = parallelThreadCount();
    setParallelThreads(1);
    BootKit bk = makeBootKit(opts.seed);
    bootLayers(bk, opts.seed, 3, result, nullptr);
    if (!haveSweep) {
        bk.kit->makeOpKeys();
        layerSweep(*bk.kit, opts, result);
    }
    setParallelThreads(threads);
}

} // namespace perfbench
