#include "framework.h"

#include "common/logging.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "runcontext.h"

namespace anaheim {

AnaheimConfig
AnaheimConfig::a100NearBank()
{
    AnaheimConfig config;
    config.gpu = GpuConfig::a100_80gb();
    config.library = LibraryProfile::cheddar();
    config.dram = DramConfig::hbm2A100();
    config.pim = PimConfig::nearBankA100();
    return config;
}

AnaheimConfig
AnaheimConfig::a100CustomHbm()
{
    AnaheimConfig config = a100NearBank();
    config.pim = PimConfig::customHbmA100();
    return config;
}

AnaheimConfig
AnaheimConfig::rtx4090NearBank()
{
    AnaheimConfig config;
    config.gpu = GpuConfig::rtx4090();
    config.library = LibraryProfile::cheddar();
    config.dram = DramConfig::gddr6xRtx4090();
    config.pim = PimConfig::nearBankRtx4090();
    return config;
}

AnaheimFramework::AnaheimFramework(const AnaheimConfig &config)
    : config_(config), gpu_(config.gpu, config.library),
      pim_(config.dram, config.pim)
{
}

PimOpcode
AnaheimFramework::opcodeFor(KernelType type)
{
    switch (type) {
      case KernelType::EwMove: return PimOpcode::Move;
      case KernelType::EwAdd: return PimOpcode::Add;
      case KernelType::EwSub: return PimOpcode::Sub;
      case KernelType::EwMult: return PimOpcode::Mult;
      case KernelType::EwMac: return PimOpcode::Mac;
      case KernelType::EwPMult: return PimOpcode::PMult;
      case KernelType::EwPMac: return PimOpcode::PMac;
      case KernelType::EwCAdd: return PimOpcode::CAdd;
      case KernelType::EwCMult: return PimOpcode::CMult;
      case KernelType::EwCMac: return PimOpcode::CMac;
      case KernelType::EwTensor: return PimOpcode::Tensor;
      case KernelType::EwTensorSq: return PimOpcode::TensorSq;
      case KernelType::EwModDownEp: return PimOpcode::ModDownEp;
      case KernelType::EwPAccum: return PimOpcode::PAccum;
      case KernelType::EwCAccum: return PimOpcode::CAccum;
      default:
        ANAHEIM_PANIC("kernel ", kernelTypeName(type),
                      " is not PIM-offloadable");
    }
}

RunResult
AnaheimFramework::execute(const OpSequence &seq) const
{
    OBS_SPAN("framework/execute");
    RunContext ctx(*this, seq);
    while (!ctx.done())
        ctx.step();
    RunResult result = ctx.finish();
    if (obs::tracingEnabled()) {
        obs::TraceCollector &collector = obs::TraceCollector::global();
        const uint32_t run = collector.beginRun(seq.name);
        collector.recordTimeline(run, result.timeline);
        obs::publishRunMetrics(result, run);
    } else {
        obs::publishRunMetrics(result);
    }
    return result;
}

} // namespace anaheim
