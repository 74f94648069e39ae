#include "gpumodel.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"

namespace anaheim {

GpuConfig
GpuConfig::a100_80gb()
{
    GpuConfig config;
    config.name = "A100 80GB";
    config.intTops = 19.5;
    config.dramBwGBs = 1802.0;
    config.l2Bytes = 40e6;
    config.energyPerDramBytePj = 31.0; // HBM2e, on-package
    config.workingTrafficFactor = 0.85; // 40MB L2 partial reuse
    config.idlePowerW = 85.0;
    return config;
}

GpuConfig
GpuConfig::rtx4090()
{
    GpuConfig config;
    config.name = "RTX 4090";
    config.intTops = 41.3;
    config.dramBwGBs = 939.0;
    config.l2Bytes = 72e6;
    config.workingTrafficFactor = 0.55; // 72MB L2 vs A100's 40MB
    config.energyPerDramBytePj = 69.0; // GDDR6X, off-package PHY
    config.idlePowerW = 55.0;
    return config;
}

LibraryProfile
LibraryProfile::cheddar()
{
    LibraryProfile profile;
    profile.name = "Cheddar";
    profile.nttEfficiency = 0.26;
    profile.bconvEfficiency = 0.50;
    profile.elementWiseEfficiency = 0.90;
    return profile;
}

LibraryProfile
LibraryProfile::phantom()
{
    // Fig. 2a: Cheddar's (I)NTT and BConv are ~1.8x faster.
    LibraryProfile profile;
    profile.name = "Phantom";
    profile.nttEfficiency = 0.26 / 1.80;
    profile.bconvEfficiency = 0.50 / 1.75;
    profile.elementWiseEfficiency = 0.88;
    return profile;
}

LibraryProfile
LibraryProfile::lib100x()
{
    LibraryProfile profile;
    profile.name = "100x";
    profile.nttEfficiency = 0.26 / 1.73;
    profile.bconvEfficiency = 0.50 / 1.73;
    profile.elementWiseEfficiency = 0.88;
    return profile;
}

KernelTraffic
GpuModel::traffic(const KernelOp &op, bool fusedWithProducer,
                  double extraWriteBackBytes, bool fusedWithConsumer) const
{
    KernelTraffic traffic;
    const double limb = limbBytes(op.n);
    // Working-set residency: a kernel whose combined operand footprint
    // fits in half the L2 (leaving room for streaming data) keeps its
    // Working operands cached; otherwise they stream.
    double workingFootprint = 0.0;
    for (const auto &operand : op.reads)
        if (operand.kind == OperandKind::Working)
            workingFootprint += operand.limbs * limb;
    const bool workingCached = workingFootprint <= config_.l2Bytes * 0.5;

    const double reuse = config_.workingTrafficFactor;
    for (const auto &operand : op.reads) {
        const double bytes = operand.limbs * limb;
        switch (operand.kind) {
          case OperandKind::Evk:
          case OperandKind::PlainConst:
            traffic.dramReadBytes += bytes; // one-time-use, streamed
            break;
          case OperandKind::Working:
            if (workingCached) {
                traffic.l2Bytes += bytes;
            } else {
                traffic.dramReadBytes += bytes * reuse;
                traffic.l2Bytes += bytes * (1.0 - reuse);
            }
            break;
          case OperandKind::Intermediate:
            if (fusedWithProducer) {
                traffic.l2Bytes += bytes;
            } else {
                traffic.dramReadBytes += bytes * reuse;
                traffic.l2Bytes += bytes * (1.0 - reuse);
            }
            break;
        }
    }
    for (const auto &operand : op.writes) {
        const double bytes = operand.limbs * limb;
        if (operand.kind == OperandKind::Intermediate &&
            fusedWithConsumer) {
            traffic.l2Bytes += bytes;
        } else {
            traffic.dramWriteBytes += bytes * reuse;
            traffic.l2Bytes += bytes * (1.0 - reuse);
        }
    }
    traffic.dramWriteBytes += extraWriteBackBytes;
    return traffic;
}

GpuKernelStats
GpuModel::run(const KernelOp &op, const KernelTraffic &traffic) const
{
    // One class and one int-op count per kernel: every term below
    // prices the same values.
    const KernelClass cls = kernelClass(op.type);
    const double intOps = op.intOps();
    double efficiency = 1.0;
    switch (cls) {
      case KernelClass::NttIntt:
        efficiency = profile_.nttEfficiency;
        break;
      case KernelClass::BConv:
        efficiency = profile_.bconvEfficiency;
        break;
      case KernelClass::ElementWise:
      case KernelClass::Automorphism:
        efficiency = profile_.elementWiseEfficiency;
        break;
    }

    GpuKernelStats stats;
    stats.traffic = traffic;
    stats.computeNs =
        intOps / (config_.intTops * 1e3 * efficiency); // TOPS->ops/ns
    const double effectiveBw = config_.dramBwGBs *
                               (cls == KernelClass::ElementWise ||
                                        cls == KernelClass::Automorphism
                                    ? profile_.elementWiseEfficiency
                                    : 1.0) *
                               config_.bwEfficiency;
    stats.memoryNs = traffic.total() / effectiveBw; // GB/s == B/ns
    stats.timeNs = std::max(stats.computeNs, stats.memoryNs) +
                   config_.launchOverheadUs * 1e3;

    stats.energyPj = intOps * config_.energyPerIntOpPj +
                     traffic.l2Bytes * config_.energyPerL2BytePj +
                     traffic.total() * config_.energyPerDramBytePj +
                     stats.timeNs * config_.idlePowerW * 1e3; // W*ns -> pJ

    // Roofline totals into the metrics registry (references cached:
    // name lookup once per process, then relaxed atomic adds).
    static obs::Counter &kernels =
        obs::MetricsRegistry::global().counter("gpu.kernels");
    static obs::Gauge &intOpsGauge =
        obs::MetricsRegistry::global().gauge("gpu.int_ops");
    static obs::Gauge &dramBytes =
        obs::MetricsRegistry::global().gauge("gpu.dram_bytes");
    static obs::Counter &memoryBound =
        obs::MetricsRegistry::global().counter("gpu.memory_bound_kernels");
    kernels.add();
    intOpsGauge.add(intOps);
    dramBytes.add(traffic.total());
    if (stats.memoryBound())
        memoryBound.add();
    return stats;
}

GpuKernelStats
GpuModel::run(const KernelOp &op, bool fusedWithProducer,
              double extraWriteBackBytes, bool fusedWithConsumer) const
{
    return run(op, traffic(op, fusedWithProducer, extraWriteBackBytes,
                           fusedWithConsumer));
}

} // namespace anaheim
