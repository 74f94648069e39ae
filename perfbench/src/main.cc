/**
 * @file
 * Host-time benchmark program. One workload per invocation:
 *
 *   anaheim_perfbench --workload <sim_paper|serve_chaos|ckks_boot|ckks_ops>
 *                     --seed <n> --seconds <s> --trace <0|1>
 *                     [--data <dir>] [--spans-out <file>] [--print-digests]
 *
 * Report lines start with '#'; the last line is one JSON object with
 * the output-check tally and the metrics: the end-to-end set with
 * --trace 0, the per-layer set with --trace 1 (see README.md).
 */

#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/parallel.h"
#include "common/status.h"
#include "harness.h"
#include "math/kernels.h"

using namespace perfbench;

namespace {

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "error: %s\nusage: anaheim_perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> [--data <dir>] "
                 "[--spans-out <file>] [--print-digests]\n",
                 msg);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "--workload" && hasValue)
            opts.workload = argv[++i];
        else if (arg == "--seed" && hasValue)
            opts.seed = std::strtoull(argv[++i], nullptr, 0);
        else if (arg == "--seconds" && hasValue)
            opts.seconds = std::strtod(argv[++i], nullptr);
        else if (arg == "--trace" && hasValue)
            opts.trace = std::strcmp(argv[++i], "0") != 0;
        else if (arg == "--data" && hasValue)
            opts.dataDir = argv[++i];
        else if (arg == "--spans-out" && hasValue)
            opts.spansOut = argv[++i];
        else if (arg == "--print-digests")
            opts.printDigests = true;
        else
            return usage(("unknown argument " + arg).c_str());
    }
    if (!(opts.seconds > 0.0))
        return usage("--seconds must be positive");

#ifndef __OPTIMIZE__
    // Timings of an unoptimized build are not results.
    std::fprintf(stderr, "error: unoptimized build (%s); rebuild with "
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo or Release\n",
                 ANAHEIM_BUILD_TYPE);
    return 3;
#endif

    const size_t nproc =
        std::max<size_t>(1, std::thread::hardware_concurrency());
    opts.threadsN = std::min<size_t>(4, nproc);
    std::printf("# meta {\"workload\": \"%s\", \"seed\": %llu, "
                "\"seconds\": %g, \"trace\": %d, \"git_sha\": \"%s\", "
                "\"build_type\": \"%s\", \"optimized\": true, "
                "\"ntt_backend\": \"%s\", \"pool_threads_n\": %zu, "
                "\"nproc\": %zu}\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.seconds,
                opts.trace ? 1 : 0, ANAHEIM_GIT_SHA, ANAHEIM_BUILD_TYPE,
                anaheim::kernels::backendName(
                    anaheim::kernels::activeBackend()),
                opts.threadsN, nproc);

    Result result;
    bool ran = false;
    const int rc = anaheim::runGuardedMain("anaheim_perfbench", [&] {
        if (opts.workload == "sim_paper")
            ran = runSimPaper(opts, result);
        else if (opts.workload == "serve_chaos")
            ran = runServeChaos(opts, result);
        else if (opts.workload == "ckks_boot")
            ran = runCkksBoot(opts, result);
        else if (opts.workload == "ckks_ops")
            ran = runCkksOps(opts, result);
        else
            return usage(("unknown workload " + opts.workload).c_str());
        return 0;
    });
    if (rc != 0 || !ran)
        return rc != 0 ? rc : 1;
    std::printf("# checks: %llu attempted, %llu failed, op_fail_ratio %.6g\n",
                static_cast<unsigned long long>(result.attempted()),
                static_cast<unsigned long long>(result.failed()),
                result.attempted()
                    ? static_cast<double>(result.failed()) /
                          static_cast<double>(result.attempted())
                    : 1.0);
    return result.finish(true);
}
