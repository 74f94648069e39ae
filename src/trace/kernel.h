/**
 * @file
 * Kernel-level operation IR for the Anaheim performance model.
 *
 * The functional library (src/ckks, src/boot) establishes WHAT the op
 * sequences are; this IR describes each GPU/PIM kernel of those
 * sequences at the paper's parameters (N = 2^16, 32-bit words), so the
 * gpu/dram/pim models can reproduce the paper's time/energy analysis
 * without executing 2^16-point NTTs.
 *
 * Operand traffic is recorded symbolically (kind + limb count); the GPU
 * traffic model decides which operands hit DRAM under the MAD-style
 * caching assumptions of §V-D.
 */

#ifndef ANAHEIM_TRACE_KERNEL_H
#define ANAHEIM_TRACE_KERNEL_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace anaheim {

/** Kernel categories used in the paper's breakdown figures. */
enum class KernelClass : uint8_t {
    ElementWise, ///< the PIM-eligible ops (Table II)
    NttIntt,     ///< (I)NTT, compute-bound on GPUs (§IV-D)
    BConv,       ///< basis conversion matrix multiply
    Automorphism ///< pure data permutation
};

enum class KernelType {
    // Element-wise (PIM ISA, Table II).
    EwMove,
    EwAdd,
    EwSub,
    EwMult,
    EwMac,
    EwPMult,
    EwPMac,
    EwCAdd,
    EwCMult,
    EwCMac,
    EwTensor,
    EwTensorSq,
    EwModDownEp,
    EwPAccum,
    EwCAccum,
    // Compute kernels.
    Ntt,
    Intt,
    BConv,
    // Data movement.
    Automorphism,
};

KernelClass kernelClass(KernelType type);
const char *kernelTypeName(KernelType type);
const char *kernelClassName(KernelClass cls);

/** What limited a timeline entry's duration in the roofline model. */
enum class BoundBy : uint8_t {
    None,      ///< maintenance phases (Scrub/Checkpoint/...)
    Compute,   ///< int-op throughput bound (GPU)
    Bandwidth, ///< DRAM/internal streaming bound (GPU memory side, PIM)
};

/** The lane a timeline entry occupies: the device that did the work
 *  (DRAM for maintenance passes), or a serve event's own lane. */
enum class Lane : uint8_t { GPU, PIM, DRAM, Preempt, Shed, Alert };

/** "GPU", "PIM", "DRAM", "Preempt", "Shed" or "Alert". */
const char *laneName(Lane lane);

/** One interval of simulated time: the only record of where a run's
 *  (or a serving scheduler's) device time went.
 *
 *  The phase is a view of a static-storage string (a string literal:
 *  the trace builders' phases, the maintenance phases, the serve-event
 *  names), never of a trace's or a caller's buffer, so an entry stays
 *  valid after the trace that produced it is gone. The record is
 *  trivially copyable and 48 bytes on LP64 targets; a paper-scale pass
 *  writes millions of them. */
struct GanttEntry {
    std::string_view phase;
    double startNs = 0.0;
    double endNs = 0.0;
    double energyPj = 0.0;
    Lane device = Lane::GPU;
    KernelClass cls = KernelClass::ElementWise;
    BoundBy bound = BoundBy::None;
};
static_assert(std::is_trivially_copyable_v<GanttEntry>);
static_assert(sizeof(void *) != 8 || sizeof(GanttEntry) == 48);

/** The paper breakdown category of an entry: "PIM" for PIM work, the
 *  kernel-class name for GPU kernels, the phase for everything else
 *  (maintenance, serve events). Keys `RunResult::timeNsByCategory`,
 *  the attribution rows and the exported trace's `cat`. A view of
 *  static storage, like the entry's names. */
std::string_view breakdownCategory(const GanttEntry &entry);

/** How an operand behaves in the cache (MAD [2] caching model). */
enum class OperandKind {
    Working,      ///< ciphertext polynomials currently being computed on
    Evk,          ///< evaluation keys: huge, streamed, one-time-use
    PlainConst,   ///< plaintext operands: streamed, one-time-use
    Intermediate, ///< producer-consumer temporary inside a sequence
};

struct Operand {
    OperandKind kind;
    /** Number of limbs (each limb is N words). */
    size_t limbs;
};

/** A fixed-capacity operand list held inline in its KernelOp, with the
 *  part of the std::vector surface the builders and models use. Adding
 *  more than `Capacity` operands throws AnaheimError(InvalidArgument);
 *  it never truncates. */
template <size_t Capacity>
class InlineOperands {
  public:
    InlineOperands() = default;
    InlineOperands(std::initializer_list<Operand> operands)
    {
        for (const Operand &operand : operands)
            push_back(operand);
    }

    void
    push_back(const Operand &operand)
    {
        ANAHEIM_CHECK(size_ < Capacity, InvalidArgument,
                      "kernel op holds at most ", Capacity,
                      " operands on this side");
        items_[size_++] = operand;
    }
    void clear() { size_ = 0; }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    Operand *begin() { return items_.data(); }
    Operand *end() { return items_.data() + size_; }
    const Operand *begin() const { return items_.data(); }
    const Operand *end() const { return items_.data() + size_; }

  private:
    std::array<Operand, Capacity> items_{};
    size_t size_ = 0;
};

struct KernelOp {
    KernelType type;
    /** Phase tag for Gantt charts / grouping: "ModUp", "KeyMult",
     *  "AutAccum", "ModDown", ... A view of a string literal: the run's
     *  timeline entries keep it after the trace is destroyed. */
    std::string_view phase;
    /** Ring degree. */
    size_t n = 0;
    /** Limbs of output processed (drives the int-op count). */
    size_t limbs = 0;
    /** Accumulation fan-in K for PAccum/CAccum; input limb count for
     *  BConv. */
    size_t fanIn = 1;
    /** Three reads cover the widest op: the unfused (basicFuse off)
     *  linear-transform EwPMac reads rotated pair, plaintext and
     *  accumulator. */
    static constexpr size_t kMaxReads = 3;
    static constexpr size_t kMaxWrites = 1;
    InlineOperands<kMaxReads> reads;
    InlineOperands<kMaxWrites> writes;
    /** Whether Anaheim offloads this kernel to PIM when enabled. */
    bool pimEligible = false;
    /** Id linking kernels fused into one launch (-1: not fused). */
    int fusionGroup = -1;

    /** 32-bit integer-op count (modular mult ~ 5 int ops). */
    double intOps() const;
    /** Modular multiplication count (Table III's TOPS are mult+add). */
    double modMults() const;
    /** Total operand bytes on the read / write side (4-byte words). */
    double readBytes() const;
    double writeBytes() const;
};
static_assert(std::is_trivially_copyable_v<KernelOp>);

/** A full workload/function trace plus its bookkeeping. */
struct OpSequence {
    std::string name;
    size_t n = 0;
    std::vector<KernelOp> ops;
    /** Number of mults applicable after bootstrapping (T_boot,eff). */
    double levelsEff = 1.0;

    void append(const OpSequence &other);
    double totalIntOps() const;
    double totalBytes() const;
    size_t countType(KernelType type) const;
};

/** Bytes of one limb at the paper's 32-bit word size. */
inline double
limbBytes(size_t n)
{
    return 4.0 * static_cast<double>(n);
}

} // namespace anaheim

#endif // ANAHEIM_TRACE_KERNEL_H
