#include "kernelmodel.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace anaheim {

PimConfig
PimConfig::degraded(const ResourceMap &resources) const
{
    PimConfig config = *this;
    // All banks of a die group run in lockstep, so the device follows
    // its worst group; the healthier groups idle their excess banks.
    size_t worstGroup = 0;
    size_t worstCount = 0;
    for (size_t g = 0; g < resources.dieGroups; ++g) {
        const size_t count = resources.quarantinedBanksInGroup(g);
        if (count > worstCount) {
            worstCount = count;
            worstGroup = g;
        }
    }
    config.offlineBanks = resources.offlineBanksInGroup(worstGroup);
    if (config.offlineBanks.size() >= config.banksPerDieGroup)
        config.offlineBanks.resize(config.banksPerDieGroup - 1);
    config.quarantinedLanes =
        std::min(resources.maxQuarantinedLanesPerGroup(),
                 config.lanes > 0 ? config.lanes - 1 : size_t{0});
    return config;
}

PimConfig
PimConfig::nearBankA100()
{
    PimConfig config;
    config.variant = PimVariant::NearBank;
    config.bufferEntries = 16;
    config.clockGHz = 0.378;
    config.banksPerUnit = 1;
    config.banksPerDieGroup = 512; // one 8-Hi stack x 64 banks
    config.dieGroups = 5;
    return config;
}

PimConfig
PimConfig::customHbmA100()
{
    PimConfig config;
    config.variant = PimVariant::CustomHbm;
    config.bufferEntries = 16;
    config.clockGHz = 0.756;
    config.banksPerUnit = 8;
    config.banksPerDieGroup = 512;
    config.dieGroups = 5;
    return config;
}

PimConfig
PimConfig::nearBankRtx4090()
{
    PimConfig config;
    config.variant = PimVariant::NearBank;
    config.bufferEntries = 32;
    config.clockGHz = 0.656;
    config.banksPerUnit = 1;
    config.banksPerDieGroup = 128; // die group of 4 dies x 32 banks
    config.dieGroups = 3;
    return config;
}

namespace {

/** Effective chunk period in DRAM cycles: the larger of the column
 *  cadence and the PIM unit's processing rate (8 lanes = 1 chunk per
 *  MMAC pass). */
int
chunkPeriodCycles(const DramTiming &timing, double clockGHz,
                  double mmacPerChunk)
{
    const double pimNs = mmacPerChunk / clockGHz;
    const double cadence =
        std::max(static_cast<double>(timing.tCCD) * timing.tCkNs, pimNs);
    return std::max(timing.tCCD,
                    static_cast<int>(std::ceil(cadence / timing.tCkNs)));
}

/** What both variants derive from the layout and the config before
 *  pricing one instruction. */
struct KernelShape {
    /** Chunk granularity G; 0 when the buffer cannot hold one chunk of
     *  every region (instruction unsupported). */
    size_t g = 0;
    size_t chunksPerBank = 0;
    size_t iterations = 0;
    size_t limbBatches = 0;
    /** ACTs per phase under column partitioning. */
    size_t actsPerPhase = 0;
    /** Per-chunk stretch from quarantined MMAC lanes. */
    double laneFactor = 1.0;
};

KernelShape
kernelShape(const DramConfig &dram, const PimConfig &pim,
            const PimInstrProfile &profile, size_t limbs, size_t n)
{
    KernelShape shape;
    ColumnPartitionLayout layout(dram, pim.banksPerDieGroup, n, 8,
                                 pim.offlineBanks);
    shape.chunksPerBank = layout.chunksPerBankPerLimb();
    const size_t g = pim.bufferEntries / profile.bufferRegions;
    if (g == 0)
        return shape;
    // The chunk granularity cannot exceed the chunks a bank holds.
    shape.g = std::min(g, shape.chunksPerBank);
    shape.iterations = (shape.chunksPerBank + shape.g - 1) / shape.g;
    // Limbs are distributed across die groups; each group processes its
    // share sequentially, all banks of the group in lockstep.
    shape.limbBatches = (limbs + pim.dieGroups - 1) / pim.dieGroups;
    shape.actsPerPhase = layout.actsPerIteration(1, pim.columnPartition);
    // Dead MMAC lanes stretch the per-chunk processing time: the
    // surviving lanes serialize the missing lanes' multiplies.
    shape.laneFactor = static_cast<double>(pim.lanes) /
                       static_cast<double>(pim.healthyLanes());
    return shape;
}

/** Banks that still switch, and the chunks, bytes and MMACs that cross
 *  them: the energy inputs both variants share. */
struct Traffic {
    double banks = 0.0;
    double chunksMoved = 0.0;
    double bytesMoved = 0.0;
    double mmacs = 0.0;
};

Traffic
traffic(const DramConfig &dram, const PimConfig &pim,
        const PimInstrProfile &profile, double chunksPerBankTotal)
{
    Traffic traffic;
    // Only the healthy banks still switch; quarantined ones idle.
    traffic.banks = static_cast<double>(pim.healthyBanksPerDieGroup()) *
                    pim.dieGroups;
    traffic.chunksMoved = chunksPerBankTotal * traffic.banks;
    traffic.bytesMoved = traffic.chunksMoved * dram.chunkBytes;
    traffic.mmacs = traffic.chunksMoved * pim.lanes *
                    profile.mmacPerChunk;
    return traffic;
}

PimExecStats
executeNearBank(const DramConfig &dram, const PimConfig &pim,
                const PimInstrProfile &profile, const KernelShape &kernel)
{
    const size_t g = kernel.g;
    DramTiming timing = dram.timing;
    timing.tCCD = chunkPeriodCycles(dram.timing, pim.clockGHz,
                                    profile.mmacPerChunk *
                                        kernel.laneFactor);
    BankEngine bank(timing);

    // One phase of an iteration: open the phase's rows and stream its
    // `streams` operands' G chunks through them.
    const auto phase = [&](size_t streams, DramCommand command) {
        const size_t acts = pim.columnPartition
                                ? kernel.actsPerPhase
                                : std::max<size_t>(1, streams);
        const size_t share = (streams * g + acts - 1) / acts;
        for (size_t a = 0; a < acts; ++a) {
            bank.activateRow();
            for (size_t c = 0; c < share; ++c)
                bank.issue(command);
        }
    };
    for (size_t batch = 0; batch < kernel.limbBatches; ++batch) {
        for (size_t iter = 0; iter < kernel.iterations; ++iter) {
            // Buffered operands (plaintexts / first sources), streamed
            // operands through the MMAC units, then the results.
            if (profile.readsGroup0 > 0)
                phase(profile.readsGroup0, DramCommand::Rd);
            phase(profile.readsGroup1, DramCommand::Rd);
            phase(profile.writes, DramCommand::Wr);
        }
    }
    if (bank.rowOpen())
        bank.issue(DramCommand::Pre);

    PimExecStats stats;
    stats.chunkGranularity = g;
    stats.timeNs = bank.elapsedNs();
    stats.commands = bank.counts();
    const Traffic moved = traffic(
        dram, pim, profile,
        static_cast<double>((profile.readsGroup0 + profile.readsGroup1 +
                             profile.writes) *
                            g * kernel.iterations * kernel.limbBatches));
    stats.chunksMoved = moved.chunksMoved;
    stats.energyPj =
        static_cast<double>(stats.commands.acts) * moved.banks *
            dram.energy.actPrePj +
        moved.bytesMoved * dram.energy.nearBankPerBytePj +
        moved.mmacs * pim.mmacEnergyPj;
    return stats;
}

PimExecStats
executeCustomHbm(const DramConfig &dram, const PimConfig &pim,
                 const PimInstrProfile &profile, const KernelShape &kernel)
{
    const double chunksPerBankTotal = static_cast<double>(
        (profile.readsGroup0 + profile.readsGroup1 + profile.writes) *
        kernel.chunksPerBank * kernel.limbBatches);

    // The logic-die unit serves banksPerUnit banks: streaming is bound
    // by the unit's MMAC rate (one chunk per pass), while ACT/PRE of
    // one bank hides behind the streaming of the other banks. Residual
    // exposure shrinks with both G and the banks-per-unit ratio. Dead
    // lanes stretch the per-chunk pass like on the near-bank variant.
    const double chunkNs =
        profile.mmacPerChunk * kernel.laneFactor / pim.clockGHz;
    const double streamNs =
        chunksPerBankTotal * static_cast<double>(pim.banksPerUnit) *
        chunkNs;
    const double actPreNs =
        static_cast<double>(dram.timing.tRP + dram.timing.tRCD) *
        dram.timing.tCkNs;
    const double phases = 3.0 * static_cast<double>(kernel.iterations) *
                          static_cast<double>(kernel.limbBatches) *
                          (pim.columnPartition
                               ? 1.0
                               : static_cast<double>(
                                     profile.readsGroup0 +
                                     profile.readsGroup1 + profile.writes) /
                                     3.0);
    const double exposedActNs =
        phases * actPreNs / static_cast<double>(pim.banksPerUnit);

    PimExecStats stats;
    stats.chunkGranularity = kernel.g;
    stats.timeNs = streamNs + exposedActNs;
    const Traffic moved = traffic(dram, pim, profile, chunksPerBankTotal);
    stats.chunksMoved = moved.chunksMoved;
    stats.commands.acts = static_cast<uint64_t>(phases);
    stats.commands.pres = stats.commands.acts;
    // Data crosses the die to the logic-die TSVs: global-I/O energy.
    stats.energyPj =
        phases * moved.banks * dram.energy.actPrePj +
        moved.bytesMoved * (dram.energy.nearBankPerBytePj +
                            dram.energy.globalIoPerBytePj) +
        moved.mmacs * pim.mmacEnergyPj;
    return stats;
}

} // namespace

PimExecStats
PimKernelModel::executeProfile(const PimInstrProfile &profile,
                               size_t limbs, size_t n) const
{
    const KernelShape kernel = kernelShape(dram_, pim_, profile, limbs, n);
    if (kernel.g == 0) {
        PimExecStats stats;
        stats.supported = false;
        return stats;
    }
    return pim_.variant == PimVariant::NearBank
               ? executeNearBank(dram_, pim_, profile, kernel)
               : executeCustomHbm(dram_, pim_, profile, kernel);
}

PimExecStats
PimKernelModel::execute(PimOpcode opcode, size_t fanIn, size_t limbs,
                        size_t n) const
{
    static obs::Counter &instructions =
        obs::MetricsRegistry::global().counter("pim.model.instructions");
    static obs::Counter &hits =
        obs::MetricsRegistry::global().counter("pim.model.cache_hits");
    static obs::Counter &misses =
        obs::MetricsRegistry::global().counter("pim.model.cache_misses");
    static obs::Gauge &chunks =
        obs::MetricsRegistry::global().gauge("pim.model.chunks_moved");
    instructions.add();
    const Key key{opcode, fanIn, limbs, n};
    auto it = priced_.find(key);
    if (it != priced_.end()) {
        hits.add();
    } else {
        misses.add();
        OBS_SPAN("pim/model_price");
        it = priced_.emplace(key, price(opcode, fanIn, limbs, n)).first;
    }
    chunks.add(it->second.chunksMoved);
    return it->second;
}

PimExecStats
PimKernelModel::price(PimOpcode opcode, size_t fanIn, size_t limbs,
                      size_t n) const
{
    // Accumulation instructions whose buffer demand (fanIn + 2 regions)
    // exceeds B are chained: each piece accumulates its share and the
    // running accumulator pair is re-read/re-written between pieces.
    if ((opcode == PimOpcode::PAccum || opcode == PimOpcode::CAccum) &&
        fanIn + 2 > pim_.bufferEntries) {
        // Chain in canonical PAccum<4> pieces (Alg. 1): larger pieces
        // would shrink G below what amortizes ACT/PRE.
        const size_t maxFanIn =
            std::min<size_t>(4, pim_.bufferEntries - 2);
        ANAHEIM_ASSERT(maxFanIn >= 1, "buffer too small for accumulation");
        PimExecStats total;
        size_t remaining = fanIn;
        bool first = true;
        while (remaining > 0) {
            const size_t piece = std::min(remaining, maxFanIn);
            // A continuation piece additionally re-reads the two
            // accumulator polynomials it carries forward.
            PimInstrProfile profile = pimInstrProfile(opcode, piece);
            if (!first)
                profile.readsGroup1 += 2;
            const PimExecStats stats = executeProfile(profile, limbs, n);
            total.timeNs += stats.timeNs;
            total.energyPj += stats.energyPj;
            total.commands.acts += stats.commands.acts;
            total.commands.reads += stats.commands.reads;
            total.commands.writes += stats.commands.writes;
            total.commands.pres += stats.commands.pres;
            total.chunksMoved += stats.chunksMoved;
            total.chunkGranularity = stats.chunkGranularity;
            remaining -= piece;
            first = false;
        }
        return total;
    }
    return executeProfile(pimInstrProfile(opcode, fanIn), limbs, n);
}

PimExecStats
PimKernelModel::baseline(PimOpcode opcode, size_t fanIn, size_t limbs,
                         size_t n) const
{
    // GPU-side execution of the same op: every operand crosses the
    // external interface at the device's peak bandwidth.
    const PimInstrProfile profile = pimInstrProfile(opcode, fanIn);
    const double streams = static_cast<double>(
        profile.readsGroup0 + profile.readsGroup1 + profile.writes);
    const double bytes = streams * static_cast<double>(limbs) * 4.0 *
                         static_cast<double>(n);
    PimExecStats stats;
    stats.timeNs = bytes / dram_.externalBwGBs; // GB/s == bytes/ns
    stats.chunksMoved = bytes / dram_.chunkBytes;
    const double rowsTouched = bytes / dram_.rowBytes;
    stats.energyPj =
        rowsTouched * dram_.energy.actPrePj +
        bytes * (dram_.energy.nearBankPerBytePj +
                 dram_.energy.globalIoPerBytePj +
                 dram_.energy.externalPerBytePj);
    return stats;
}

} // namespace anaheim
