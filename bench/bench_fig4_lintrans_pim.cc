/**
 * Fig. 4a: Gantt comparison of an optimized linear transform (K=8,
 * hoisting) on A100: GPU-only, hypothetical 4x-bandwidth DRAM, and PIM
 * offloading. Fig. 4b: bootstrapping DRAM access volume and energy
 * with and without PIM, plus the unlimited-cache ideal.
 */

#include <cstdio>
#include <map>
#include <string>

#include "anaheim/framework.h"
#include "anaheim/workloads.h"
#include "bench_util.h"
#include "common/status.h"
#include "common/units.h"
#include "trace/builders.h"

using namespace anaheim;

namespace {

void
printGantt(const char *label, const RunResult &result)
{
    // Condense the timeline into phase segments.
    std::printf("  %-12s total %8.2f us | ", label, result.totalNs * 1e-3);
    const auto key = [&](size_t i) {
        const GanttEntry &entry = result.timeline[i];
        return laneName(entry.device) + std::string("/") +
               std::string(entry.phase);
    };
    std::string lastKey;
    double segStart = 0.0;
    for (size_t i = 0; i <= result.timeline.size(); ++i) {
        const bool flush = i == result.timeline.size() || key(i) != lastKey;
        if (flush && !lastKey.empty()) {
            const double end = i == result.timeline.size()
                                   ? result.totalNs
                                   : result.timeline[i].startNs;
            std::printf("[%s %.0fus] ", lastKey.c_str(),
                        (end - segStart) * 1e-3);
        }
        if (i < result.timeline.size() && flush) {
            lastKey = key(i);
            segStart = result.timeline[i].startNs;
        }
    }
    std::printf("\n");
}

} // namespace

static int
run(int argc, char **argv)
{
    bench::JsonScope json("fig4_lintrans_pim", argc, argv);
    bench::header("Fig. 4a — linear transform (K=8, hoisting) on A100: "
                  "GPU-only vs 4x-BW DRAM vs PIM");

    const TraceParams params;
    const OpSequence lt =
        buildLinearTransform(params, 8, TraceLtAlgorithm::Hoisting);

    AnaheimConfig gpuOnly = AnaheimConfig::a100NearBank();
    gpuOnly.pimEnabled = false;
    const auto resultGpu = AnaheimFramework(gpuOnly).execute(lt);

    AnaheimConfig fourX = gpuOnly;
    fourX.gpu.dramBwGBs *= 4.0;
    const auto result4x = AnaheimFramework(fourX).execute(lt);

    const AnaheimConfig withPim = AnaheimConfig::a100NearBank();
    const auto resultPim = AnaheimFramework(withPim).execute(lt);

    printGantt("w/o PIM", resultGpu);
    printGantt("4x BW DRAM", result4x);
    printGantt("PIM", resultPim);
    std::printf("  speedups: 4x-BW %.2fx, PIM %.2fx\n",
                resultGpu.totalNs / result4x.totalNs,
                resultGpu.totalNs / resultPim.totalNs);
    json.report().metric("lt_speedup_4xbw",
                         resultGpu.totalNs / result4x.totalNs);
    json.report().metric("lt_speedup_pim",
                         resultGpu.totalNs / resultPim.totalNs);
    bench::note("paper: 4x BW helps element-wise ops 2.84x but barely "
                "touches ModSwitch; PIM obtains similar gains without "
                "raising external bandwidth");

    bench::header("Fig. 4b — bootstrapping GPU-side DRAM access and "
                  "DRAM energy");
    const OpSequence boot = makeBootWorkload();
    const auto bootGpu = AnaheimFramework(gpuOnly).execute(boot);
    const auto bootPim = AnaheimFramework(withPim).execute(boot);

    // Ideal: unlimited cache, MinKS (only compulsory evk/plaintext
    // misses).
    double idealBytes = 0.0;
    const OpSequence bootMinKs =
        buildBootstrap(params, 3.5, TraceLtAlgorithm::MinKS);
    {
        std::map<const void *, bool> seen;
        double evkOnce = 0.0;
        for (const auto &op : bootMinKs.ops) {
            for (const auto &operand : op.reads) {
                if (operand.kind == OperandKind::PlainConst)
                    idealBytes += operand.limbs * limbBytes(op.n);
            }
        }
        // One evk per distinct rotation; MinKS reuses a single one per
        // transform plus relinearization/conjugation keys: ~4 evks.
        evkOnce = 4.0 * 2.0 * params.digits() * params.extended() *
                  limbBytes(params.n);
        idealBytes += evkOnce;
    }

    std::printf("  %-12s %14s %14s\n", "Config", "GPU DRAM", "energy");
    std::printf("  %-12s %14s %12.3fJ\n", "w/o PIM",
                formatBytes(bootGpu.gpuDramBytes).c_str(),
                bootGpu.energyJoules());
    std::printf("  %-12s %14s %12.3fJ  (+%s PIM-internal)\n", "PIM",
                formatBytes(bootPim.gpuDramBytes).c_str(),
                bootPim.energyJoules(),
                formatBytes(bootPim.pimInternalBytes).c_str());
    std::printf("  %-12s %14s\n", "ideal", formatBytes(idealBytes).c_str());
    std::printf("  reduction: %.2fx vs baseline (paper: 6.15x); "
                "PIM vs ideal: %.2fx (paper: 1.86x); energy %.2fx "
                "(paper: 2.87x DRAM energy)\n",
                bootGpu.gpuDramBytes / bootPim.gpuDramBytes,
                bootPim.gpuDramBytes / idealBytes,
                bootGpu.energyJoules() / bootPim.energyJoules());
    return 0;
}

int
main(int argc, char **argv)
{
    // Recoverable library errors (bad traces, infeasible
    // parameters) surface as AnaheimError; report them
    // cleanly instead of aborting.
    return runGuardedMain("bench_fig4_lintrans_pim",
                          [&] { return run(argc, argv); });
}
