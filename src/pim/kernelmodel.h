/**
 * @file
 * Timing and energy model of Anaheim PIM kernels.
 *
 * Near-bank PIM (§VI-A) simulates the per-bank command stream of the
 * fused Alg.-1 execution through the dram BankEngine — all banks run in
 * lockstep during all-bank operation, so one bank's schedule is the
 * device's. The custom-HBM variant (§VI-D) places one PIM unit per
 * several banks on the logic die: ACT/PRE latencies hide behind the
 * other banks' streaming, at a lower aggregate internal bandwidth
 * (Table III: 4x vs 16x the external bandwidth on A100).
 *
 * Pricing is memoized in two levels. An instruction's cost is a pure
 * function of (opcode, fan-in, limbs, N) and of the DRAM/PIM config:
 * Alg. 1's command stream is static (§V-C), and the BankEngine that
 * replays it has no fault model attached, so even its refresh stalls
 * are deterministic. Each model keeps an unlocked per-instance memo;
 * on a miss there it asks a process-wide `PimPriceStore` keyed by the
 * full config and the shape, and only a miss there too replays the
 * command stream. So a fresh framework, serving burst or degraded
 * device (a new instance, built on its degraded config) re-prices
 * nothing another model of an equal config has already priced.
 */

#ifndef ANAHEIM_PIM_KERNELMODEL_H
#define ANAHEIM_PIM_KERNELMODEL_H

#include <compare>
#include <map>
#include <mutex>
#include <optional>

#include "dram/bank.h"
#include "dram/timing.h"
#include "isa.h"
#include "layout.h"
#include "sim/health.h"

namespace anaheim {

enum class PimVariant { NearBank, CustomHbm };

struct PimConfig {
    PimVariant variant = PimVariant::NearBank;
    /** Data-buffer entries per PIM unit (B of §VI-A / Fig. 9). */
    size_t bufferEntries = 16;
    /** PIM unit clock in GHz (Table III). */
    double clockGHz = 0.378;
    /** Banks sharing one PIM unit (1 for near-bank). */
    size_t banksPerUnit = 1;
    /** Banks of one die group that share each limb (§VI-B). */
    size_t banksPerDieGroup = 512;
    /** Number of die groups working on different limbs in parallel. */
    size_t dieGroups = 5;
    /** MMAC lanes per unit (matches the 256-bit global I/O). */
    size_t lanes = 8;
    /** Use the column-partitioning layout (off for the w/o-CP
     *  sensitivity study, Fig. 10). */
    bool columnPartition = true;
    /** Energy per modular multiply-accumulate, pJ (ASAP7-derived with
     *  the paper's conservative DRAM-process compensation). */
    double mmacEnergyPj = 1.5;

    /**
     * Degraded-mode state (set by the framework after a health-driven
     * quarantine; empty/zero on a healthy device). Because all banks
     * of a die group run in lockstep, the device degrades to the
     * *worst* group: `offlineBanks` holds that group's quarantined
     * bank indices — layouts stripe each limb over the remaining
     * healthy banks (more chunks per bank, so longer lockstep
     * streams), and energy only charges the banks that still switch.
     */
    std::vector<size_t> offlineBanks;
    /** Quarantined MMAC lanes per unit: the surviving lanes absorb the
     *  dead lanes' multiplies, stretching the chunk cadence by
     *  lanes / healthyLanes(). */
    size_t quarantinedLanes = 0;

    /** Field-wise, and so also `==`: a field added later joins the PIM
     *  price store's key by itself. */
    auto operator<=>(const PimConfig &) const = default;

    size_t healthyBanksPerDieGroup() const
    {
        return banksPerDieGroup > offlineBanks.size()
                   ? banksPerDieGroup - offlineBanks.size()
                   : 1;
    }
    size_t healthyLanes() const
    {
        return lanes > quarantinedLanes ? lanes - quarantinedLanes : 1;
    }

    /** Config degraded by a quarantine set: the worst die group's
     *  offline banks (lockstep makes it the device bottleneck) and its
     *  quarantined lane count, clamped so at least one bank and one
     *  lane survive. Identity when nothing is quarantined. */
    PimConfig degraded(const ResourceMap &resources) const;

    /** Near-bank A100 configuration (Table III column 1). */
    static PimConfig nearBankA100();
    /** Custom-HBM A100 configuration (Table III column 2). */
    static PimConfig customHbmA100();
    /** Near-bank RTX 4090 configuration (Table III column 3). */
    static PimConfig nearBankRtx4090();
};

struct PimExecStats {
    double timeNs = 0.0;
    double energyPj = 0.0;
    CommandCounts commands;
    /** Total chunks streamed through the MMAC units (all banks). */
    double chunksMoved = 0.0;
    /** Chunk granularity used. */
    size_t chunkGranularity = 0;
    bool supported = true;
};

/** What an instruction's price depends on besides the config. */
struct PimShape {
    PimOpcode opcode;
    size_t fanIn;
    size_t limbs;
    size_t n;
    auto operator<=>(const PimShape &) const = default;
};

/**
 * Prices shared by every PimKernelModel built on the store, keyed by
 * the model's full (DramConfig, PimConfig) and the instruction shape.
 * Any thread may use it: one mutex guards it, and models price outside
 * the lock. It holds at most `capacity` configs and `capacity` prices;
 * past that it stops inserting, and the models it turns away price on
 * their own. Pricing is pure, so no output depends on what it holds.
 */
class PimPriceStore
{
  public:
    static constexpr size_t kDefaultCapacity = 4096;

    explicit PimPriceStore(size_t capacity = kDefaultCapacity)
        : capacity_(capacity)
    {
    }
    PimPriceStore(const PimPriceStore &) = delete;
    PimPriceStore &operator=(const PimPriceStore &) = delete;

    /** The store every model uses unless it is given another. */
    static PimPriceStore &global();

    /** Prices held, over all configs. */
    size_t size() const;

  private:
    friend class PimKernelModel;
    using Prices = std::map<PimShape, PimExecStats>;
    struct ConfigKey {
        DramConfig dram;
        PimConfig pim;
        auto operator<=>(const ConfigKey &) const = default;
    };

    /** The price table of one config, added if there is room; nullptr
     *  once the store holds `capacity` configs. */
    Prices *intern(const DramConfig &dram, const PimConfig &pim);
    std::optional<PimExecStats> find(const Prices *prices,
                                     const PimShape &shape) const;
    void insert(Prices *prices, const PimShape &shape,
                const PimExecStats &stats);

    const size_t capacity_;
    mutable std::mutex mutex_;
    std::map<ConfigKey, Prices> configs_;
    size_t size_ = 0;
};

/**
 * Prices PIM instructions. `execute` fills a per-instance memo that
 * takes no lock, so an instance has one owning thread: the simulator
 * never shares a framework (and so its model) across threads. Models
 * on different threads may share a store.
 */
class PimKernelModel
{
  public:
    /** `store` must outlive the model. */
    PimKernelModel(const DramConfig &dram, const PimConfig &pim,
                   PimPriceStore &store = PimPriceStore::global())
        : dram_(dram), pim_(pim), store_(&store),
          shared_(store.intern(dram, pim))
    {
    }

    const PimConfig &config() const { return pim_; }

    /**
     * Execute one PIM instruction over `limbs` limbs of degree-n
     * polynomials, using all banks. Returns device-level time/energy.
     * Only the first call per (opcode, fanIn, limbs, n) and config in
     * the store prices it; later calls return the memoized stats.
     * Every call counts in `pim.model.instructions` and
     * `pim.model.chunks_moved`, and in `pim.model.cache_hits` (answered
     * by the instance memo or the store) or `pim.model.cache_misses`
     * (priced).
     */
    PimExecStats execute(PimOpcode opcode, size_t fanIn, size_t limbs,
                         size_t n) const;

    /** Time/energy of moving the same bytes over the regular DRAM
     *  interface (the GPU-side baseline of Fig. 9). */
    PimExecStats baseline(PimOpcode opcode, size_t fanIn, size_t limbs,
                          size_t n) const;

  private:
    /** Price one instruction without the memo, chaining accumulations
     *  whose fan-in overflows the buffer. */
    PimExecStats price(PimOpcode opcode, size_t fanIn, size_t limbs,
                       size_t n) const;
    /** Price one instruction profile on the configured variant. */
    PimExecStats executeProfile(const PimInstrProfile &profile,
                                size_t limbs, size_t n) const;

    DramConfig dram_;
    PimConfig pim_;
    PimPriceStore *store_;
    /** This config's table in the store; nullptr if it was full. */
    PimPriceStore::Prices *shared_;
    /** Stats of every instruction shape this instance has returned. */
    mutable std::map<PimShape, PimExecStats> priced_;
};

} // namespace anaheim

#endif // ANAHEIM_PIM_KERNELMODEL_H
