#include "planner.h"

#include <algorithm>

#include "pim/layout.h"

namespace anaheim {

MemoryPlan
PimMemoryPlanner::plan(const OpSequence &seq) const
{
    return planWith(seq, pim_);
}

MemoryPlan
PimMemoryPlanner::plan(const OpSequence &seq,
                       const ResourceMap &resources) const
{
    return planWith(seq, pim_.degraded(resources));
}

MemoryPlan
PimMemoryPlanner::planWith(const OpSequence &seq,
                           const PimConfig &pim) const
{
    MemoryPlan result;
    for (size_t i = 0; i < seq.ops.size(); ++i) {
        const KernelOp &op = seq.ops[i];
        if (!op.pimEligible)
            continue;
        ++result.pimKernels;

        // Each operand polynomial occupies one row group per limb in
        // its column-group slice; operands sharing a PolyGroup share
        // rows across (up to) the column-group count. Offline banks
        // deepen the row groups: the same chunks stripe over fewer
        // healthy banks.
        ColumnPartitionLayout layout(dram_, pim.banksPerDieGroup, op.n,
                                     8, pim.offlineBanks);
        const size_t columnGroups = layout.columnGroups();
        auto rowsFor = [&](const auto &operands) {
            // Limbs per die group (each group holds its own share).
            size_t totalLimbs = 0;
            for (const auto &operand : operands)
                totalLimbs += operand.limbs;
            const size_t limbsPerGroup =
                (totalLimbs + pim.dieGroups - 1) / pim.dieGroups;
            // PolyGroups pack polynomials columnGroups-wide.
            const size_t packed =
                (limbsPerGroup + columnGroups - 1) / columnGroups;
            return packed * layout.rowsPerRowGroup();
        };
        const size_t rows = rowsFor(op.reads) + rowsFor(op.writes);
        if (rows > result.peakRowsPerBank) {
            result.peakRowsPerBank = rows;
            result.peakOpIndex = i;
        }
    }

    // Per-bank row budget from device capacity: bytes per bank / row.
    const double bankBytes =
        dram_.capacityBytes / static_cast<double>(dram_.totalBanks());
    const size_t rowBudget =
        static_cast<size_t>(bankBytes / dram_.rowBytes);
    result.fits = result.peakRowsPerBank <= rowBudget;
    return result;
}

} // namespace anaheim
